package experiments

import (
	"fmt"
	"testing"

	"megammap/internal/device"
	"megammap/internal/vtime"
)

// grayCellString flattens a cell's full report into one comparable
// string — the table the replay tests compare byte for byte.
func grayCellString(out GrayCellOut) string {
	return fmt.Sprintf(
		"resilience=%v runtime=%d p50=%d p99=%d p999=%d ops=%d errs=%d "+
			"hedge=%d/%d/%d quar=%d/%d probes=%d retries=%d read=%d\n",
		out.Resilience, out.Runtime, out.P50, out.P99, out.P999, out.Ops, out.Errs,
		out.HedgeLaunched, out.HedgeWon, out.HedgeWasted,
		out.QuarEntered, out.QuarExited, out.Probes, out.Retries, out.BytesRead)
}

// runGray runs the cell shape of configs/plan-gray.yaml: three nodes
// with a 192KB DRAM scache tier each, serving for 500 virtual ms.
func runGray(t *testing.T, resilience bool) GrayCellOut {
	t.Helper()
	out, err := RunGrayCell(3, 192*device.KB, 500*vtime.Millisecond, 42, resilience, GrayFaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGrayDeterministicReplay: two same-seed runs under the full
// scripted fault plan — device ramp, sticky jitter, flapping links, and
// a mid-run crash+revive — produce byte-identical tables, in both
// resilience modes.
func TestGrayDeterministicReplay(t *testing.T) {
	for _, res := range []bool{false, true} {
		a, b := runGray(t, res), runGray(t, res)
		if sa, sb := grayCellString(a), grayCellString(b); sa != sb {
			t.Errorf("resilience=%v replay diverged:\n--- run 1\n%s--- run 2\n%s", res, sa, sb)
		}
	}
}

// TestGrayResilienceCutsTail: with the health plane on, hedging and
// quarantine cut the p99 under the injected stragglers, throughput does
// not regress, and the extra read I/O the hedges cost stays bounded.
func TestGrayResilienceCutsTail(t *testing.T) {
	off, on := runGray(t, false), runGray(t, true)
	t.Logf("off: %s", grayCellString(off))
	t.Logf("on:  %s", grayCellString(on))
	if off.HedgeLaunched != 0 || off.QuarEntered != 0 {
		t.Errorf("resilience off must not hedge or quarantine (hedges=%d quar=%d)",
			off.HedgeLaunched, off.QuarEntered)
	}
	if on.HedgeLaunched == 0 {
		t.Error("resilience on launched no hedges under a scripted straggler")
	}
	if on.HedgeWon == 0 {
		t.Error("no hedge beat the degraded primary")
	}
	if on.HedgeLaunched != on.HedgeWon+on.HedgeWasted {
		t.Errorf("hedge accounting: launched=%d != won=%d + wasted=%d",
			on.HedgeLaunched, on.HedgeWon, on.HedgeWasted)
	}
	if on.QuarEntered == 0 {
		t.Error("the degraded node was never quarantined")
	}
	if on.P99 >= off.P99 {
		t.Errorf("p99 did not improve: on=%d off=%d", on.P99, off.P99)
	}
	if on.Ops < off.Ops {
		t.Errorf("throughput regressed: on=%d ops, off=%d ops", on.Ops, off.Ops)
	}
	// Hedge losers charge real I/O, but the overhead must stay bounded:
	// well under 50% extra read bytes for the tail savings.
	if lim := off.BytesRead + off.BytesRead/2; on.BytesRead > lim {
		t.Errorf("hedging read overhead unbounded: on=%d off=%d", on.BytesRead, off.BytesRead)
	}
}
