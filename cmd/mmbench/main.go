// Command mmbench regenerates the paper's evaluation: one sub-experiment
// per table/figure (fig4-fig8) plus the ablation studies. Results print
// as aligned tables and, with -o, also land as CSV files (the pipeline's
// stats_dict.csv analog). The scenarios beyond the paper (failover,
// mttr, control, tenants, gray, disagg) are scenario plans: run them
// with cmd/mmplan and configs/plan-*.yaml.
//
// Usage:
//
//	mmbench -exp all -profile small -o results/
//	mmbench -exp fig6 -profile full
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"megammap/internal/experiments"
	"megammap/internal/stats"
	"megammap/internal/telemetry"
	"megammap/internal/vtime"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig4|fig5|fig6|fig7|fig8|ablations|scale|all")
	profName := flag.String("profile", "small", "size profile: small|full")
	outDir := flag.String("o", "", "directory for CSV output (optional)")
	telem := flag.Bool("telemetry", false, "install the telemetry plane on every experiment cluster and write per-run metric/sample tables under <o>/telemetry/ (requires -o)")
	flag.Parse()

	if *telem {
		if *outDir == "" {
			fmt.Fprintln(os.Stderr, "mmbench: -telemetry requires -o")
			os.Exit(2)
		}
		experiments.EnableTelemetry(telemetry.Options{
			Metrics:      true,
			SamplePeriod: vtime.Millisecond,
		})
	}

	var prof experiments.Profile
	switch *profName {
	case "small":
		prof = experiments.Small()
	case "full":
		prof = experiments.Full()
	default:
		fmt.Fprintf(os.Stderr, "mmbench: unknown profile %q\n", *profName)
		os.Exit(2)
	}

	type driver struct {
		name string
		run  func() (*stats.Table, error)
	}
	drivers := []driver{
		{"fig4", func() (*stats.Table, error) { return experiments.Fig4() }},
		{"fig5", func() (*stats.Table, error) { return experiments.Fig5(prof) }},
		{"fig6", func() (*stats.Table, error) { return experiments.Fig6(prof) }},
		{"fig7", func() (*stats.Table, error) { return experiments.Fig7(prof) }},
		{"fig8", func() (*stats.Table, error) { return experiments.Fig8(prof) }},
		{"ablations", func() (*stats.Table, error) { return nil, nil }}, // expanded below
		// scale is opt-in (not part of "all"): it benchmarks the simulator
		// itself (engine throughput and host RAM per node), not a paper
		// figure.
		{"scale", func() (*stats.Table, error) { return experiments.Scale(prof) }},
	}

	ablations := []driver{
		{"ablation-prefetch", func() (*stats.Table, error) { return experiments.AblationPrefetch(prof) }},
		{"ablation-worker-split", func() (*stats.Table, error) { return experiments.AblationWorkerSplit(prof) }},
		{"ablation-partial-paging", func() (*stats.Table, error) { return experiments.AblationPartialPaging(prof) }},
		{"ablation-page-size", func() (*stats.Table, error) { return experiments.AblationPageSize(prof) }},
		{"ablation-coherence", func() (*stats.Table, error) { return experiments.AblationCoherence(prof) }},
		{"ablation-bag-order", func() (*stats.Table, error) { return experiments.AblationBagOrder(prof) }},
	}

	var selected []driver
	switch *exp {
	case "all":
		for _, d := range drivers[:5] {
			selected = append(selected, d)
		}
		selected = append(selected, ablations...)
	case "ablations":
		selected = ablations
	default:
		for _, d := range drivers {
			if d.name == *exp && d.name != "ablations" {
				selected = append(selected, d)
			}
		}
		for _, d := range ablations {
			if d.name == *exp || strings.TrimPrefix(d.name, "ablation-") == strings.TrimPrefix(*exp, "ablation-") {
				selected = append(selected, d)
			}
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "mmbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	for _, d := range selected {
		start := time.Now()
		tb, err := d.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmbench: %s: %v\n", d.name, err)
			os.Exit(1)
		}
		fmt.Printf("%s(host time %.1fs, profile %s)\n\n", tb.String(), time.Since(start).Seconds(), prof.Name)
		if *outDir != "" {
			if err := writeCSV(*outDir, tb); err != nil {
				fmt.Fprintf(os.Stderr, "mmbench: writing %s: %v\n", tb.Name(), err)
				os.Exit(1)
			}
		}
		if *telem {
			if err := writeTelemetry(*outDir, d.name); err != nil {
				fmt.Fprintf(os.Stderr, "mmbench: telemetry for %s: %v\n", d.name, err)
				os.Exit(1)
			}
		}
	}
}

// writeTelemetry drains the telemetry planes of the driver's runs and
// writes each plane's tables as <o>/telemetry/<exp>_run<i>_<table>.csv.
func writeTelemetry(dir, exp string) error {
	runs := experiments.DrainTelemetry()
	if len(runs) == 0 {
		return nil
	}
	tdir := filepath.Join(dir, "telemetry")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	for i, tel := range runs {
		for _, tb := range tel.Tables() {
			name := fmt.Sprintf("%s_run%d_%s.csv", exp, i, tb.Name())
			f, err := os.Create(filepath.Join(tdir, name))
			if err != nil {
				return err
			}
			if err := tb.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSV(dir string, tb *stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tb.Name()+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tb.WriteCSV(f)
}
