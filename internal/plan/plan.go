// Package plan runs declarative scenario plans: one YAML document
// composes a workload (app + parameters), a fault specification, control
// configuration, per-vector paging-policy hints, and telemetry
// assertions. The runner expands the plan's parameter matrix into
// cells, executes each cell deterministically under virtual time, and
// gates the results against golden baselines checked into the repo
// (tolerance bands for time metrics, byte-exact comparison for
// checksums and telemetry digests).
//
// Plans are the only driver of the scenarios beyond the paper's figures
// (failover, mttr, control, scrub, tenants, gray, disagg, bfs hints):
// each configs/plan-*.yaml names its matrix, assertions and baseline,
// and cmd/mmplan runs and gates it. Cells call the internal/experiments
// cell functions (RunKMeansFaultCell, RunScrubCell, RunTenantsCell,
// RunGrayCell, RunDisaggCell) directly; the BFS cell runs here.
package plan

import (
	"errors"
	"fmt"
	"strings"

	"megammap/internal/core"
	"megammap/internal/faults"
	"megammap/internal/vtime"
)

// Typed validation errors, matchable with errors.Is.
var (
	ErrBadPlan       = errors.New("plan: malformed plan")
	ErrEmptyMatrix   = errors.New("plan: matrix expands to no cells")
	ErrUnknownApp    = errors.New("plan: unknown app")
	ErrUnknownAxis   = errors.New("plan: unknown matrix axis")
	ErrUnknownFault  = errors.New("plan: fault axis names no declared spec")
	ErrFaultTimeline = errors.New("plan: conflicting fault/revive timeline")
	ErrBadAssert     = errors.New("plan: bad assertion")
)

// Plan is one declarative scenario: a workload, a parameter matrix, and
// the fault specs, policy hints, and assertions its cells reference.
type Plan struct {
	Name string
	App  string // kmeans | grayscott | bfs | tenants | gray | disagg

	Nodes        int
	Procs        int   // ranks per node
	BytesPerNode int64 // dataset bytes per node (kmeans, grayscott)
	Vertices     int64 // graph size (bfs)

	Workload Workload
	Axes     []Axis
	Faults   map[string]*FaultSpec
	Hints    []core.VectorHint
	Asserts  []Assert

	// Baseline is the golden-results file the run gates against
	// (repo-relative); Tolerance is the relative band applied to time
	// metrics (digests always compare byte-exact).
	Baseline  string
	Tolerance float64
}

// Workload carries the app parameters a plan can set (union across
// apps; unused fields are ignored by the other executors).
type Workload struct {
	K           int            // kmeans clusters
	MaxIter     int            // kmeans iterations
	CostPerDist vtime.Duration // kmeans per-distance compute (real scale)
	Steps       int            // grayscott steps
	Seed        int64          // bfs graph seed
	Source      int64          // bfs root vertex
}

// defaultWorkload fills the workload fields a plan leaves unset.
func defaultWorkload() Workload {
	return Workload{K: 8, MaxIter: 4, CostPerDist: 3 * vtime.Nanosecond, Steps: 3, Seed: 42}
}

// Axis is one matrix dimension: the cartesian product of all axes'
// values, row-major in declaration order, is the plan's cell set.
type Axis struct {
	Name   string
	Values []string
}

// Frac is a fraction of the clean cell's measured runtime (zero Den =
// unset).
type Frac struct{ Num, Den int64 }

// FaultSpec composes an explicit fault-DSL string (absolute times and
// probabilistic rules) with crash/revive points derived from the clean
// cell: "1@1/3" crashes node 1 a third of the way through the clean
// cell's measured phase, counted from dataset-generation end.
type FaultSpec struct {
	Spec       string
	CrashNode  int
	CrashFrac  Frac
	ReviveNode int
	ReviveFrac Frac

	parsed *faults.Plan
}

// derived reports whether the spec needs a clean reference run.
func (fs *FaultSpec) derived() bool { return fs.CrashFrac.Den > 0 || fs.ReviveFrac.Den > 0 }

// build instantiates the fault plan against the clean cell's
// generation-end time and measured runtime.
func (fs *FaultSpec) build(genEnd, runtime vtime.Duration) *faults.Plan {
	p := *fs.parsed
	if fs.CrashFrac.Den > 0 {
		at := genEnd + runtime*vtime.Duration(fs.CrashFrac.Num)/vtime.Duration(fs.CrashFrac.Den)
		p.Crashes = append(append([]faults.Crash(nil), p.Crashes...), faults.Crash{Node: fs.CrashNode, At: at})
	}
	if fs.ReviveFrac.Den > 0 {
		at := genEnd + runtime*vtime.Duration(fs.ReviveFrac.Num)/vtime.Duration(fs.ReviveFrac.Den)
		p.Revives = append(append([]faults.Revive(nil), p.Revives...), faults.Revive{Node: fs.ReviveNode, At: at})
	}
	return &p
}

// Assert is one telemetry assertion over the finished cell results.
// Exactly one op is set: Eq/Min/Max compare the metric against a
// constant; LtCell/LeCell/EqCell compare it against the same metric in
// another cell.
type Assert struct {
	Metric string
	Cell   string
	Op     string // eq | min | max | lt_cell | le_cell | eq_cell
	Value  float64
	Other  string // comparison cell for the *_cell ops
}

// Cell is one point of the expanded matrix.
type Cell struct {
	axes []string
	vals []string
}

// ID is the canonical cell name: "axis=value" pairs joined with commas,
// in axis declaration order.
func (c Cell) ID() string {
	var b strings.Builder
	for i := range c.axes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(c.axes[i])
		b.WriteByte('=')
		b.WriteString(c.vals[i])
	}
	return b.String()
}

// Get returns the cell's value on the named axis.
func (c Cell) Get(axis string) (string, bool) {
	for i := range c.axes {
		if c.axes[i] == axis {
			return c.vals[i], true
		}
	}
	return "", false
}

// Cells expands the matrix row-major: the last axis varies fastest.
func (p *Plan) Cells() []Cell {
	total := 1
	for _, a := range p.Axes {
		total *= len(a.Values)
	}
	if len(p.Axes) == 0 {
		return nil
	}
	out := make([]Cell, 0, total)
	idx := make([]int, len(p.Axes))
	for {
		c := Cell{axes: make([]string, len(p.Axes)), vals: make([]string, len(p.Axes))}
		for i, a := range p.Axes {
			c.axes[i] = a.Name
			c.vals[i] = a.Values[idx[i]]
		}
		out = append(out, c)
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(p.Axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// axesFor lists the matrix axes each app understands.
var axesFor = map[string][]string{
	"kmeans":    {"fault", "governor"},
	"grayscott": {"scrub"},
	"bfs":       {"hints", "bound"},
	"tenants":   {"isolation"},
	"gray":      {"resilience"},
	"disagg":    {"workload", "topology"},
}

// axisValues constrains the enumerated axes ("" = free-form, validated
// by the executor).
var axisValues = map[string][]string{
	"governor":   {"fixed", "adaptive"},
	"scrub":      {"off", "fixed", "adaptive"},
	"hints":      {"off", "on"},
	"isolation":  {"off", "on"},
	"resilience": {"off", "on"},
	"workload":   {"kmeans", "bfs"},
	"topology":   {"local", "disagg"},
}

// Validate rejects plans that would run a degenerate or ambiguous
// scenario; every failure wraps one of the typed errors above.
func (p *Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("%w: missing plan.name", ErrBadPlan)
	}
	known, ok := axesFor[p.App]
	if !ok {
		return fmt.Errorf("%w %q (want kmeans, grayscott, bfs, tenants, gray, or disagg)", ErrUnknownApp, p.App)
	}
	if p.Nodes < 1 || p.Procs < 1 {
		return fmt.Errorf("%w: nodes and procs_per_node must be >= 1 (got %d, %d)", ErrBadPlan, p.Nodes, p.Procs)
	}
	switch {
	case p.App == "bfs":
		if p.Vertices < 1 {
			return fmt.Errorf("%w: bfs needs vertices >= 1", ErrBadPlan)
		}
	case p.App == "disagg":
		// disagg runs both workloads, so it needs both shape parameters.
		if p.Vertices < 1 {
			return fmt.Errorf("%w: disagg needs vertices >= 1", ErrBadPlan)
		}
		if p.BytesPerNode < 1 {
			return fmt.Errorf("%w: disagg needs bytes_per_node >= 1", ErrBadPlan)
		}
	case p.BytesPerNode < 1:
		return fmt.Errorf("%w: %s needs bytes_per_node >= 1", ErrBadPlan, p.App)
	}
	if p.Tolerance < 0 {
		return fmt.Errorf("%w: negative tolerance", ErrBadPlan)
	}
	if len(p.Axes) == 0 {
		return fmt.Errorf("%w: no matrix axes", ErrEmptyMatrix)
	}
	seen := map[string]bool{}
	for _, a := range p.Axes {
		if len(a.Values) == 0 {
			return fmt.Errorf("%w: axis %q has no values", ErrEmptyMatrix, a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("%w: duplicate axis %q", ErrBadPlan, a.Name)
		}
		seen[a.Name] = true
		valid := false
		for _, k := range known {
			valid = valid || k == a.Name
		}
		if !valid {
			return fmt.Errorf("%w %q for app %s (want one of %v)", ErrUnknownAxis, a.Name, p.App, known)
		}
		if allowed, ok := axisValues[a.Name]; ok {
			for _, v := range a.Values {
				found := false
				for _, av := range allowed {
					found = found || av == v
				}
				if !found {
					return fmt.Errorf("%w: axis %s value %q (want one of %v)", ErrBadPlan, a.Name, v, allowed)
				}
			}
		}
	}
	if err := p.validateFaultAxis(); err != nil {
		return err
	}
	for name, fs := range p.Faults {
		if err := fs.validate(); err != nil {
			return fmt.Errorf("fault spec %q: %w", name, err)
		}
	}
	for _, h := range p.Hints {
		if err := h.Validate(); err != nil {
			return fmt.Errorf("%w: hints: %w", ErrBadPlan, err)
		}
	}
	return p.validateAsserts()
}

// validateFaultAxis checks that every fault-axis value names a declared
// spec and has a "none" cell ordered before it: faulted cells report
// slowdown and checksum_match against the clean cell, and derived specs
// take their crash/revive times from it.
func (p *Plan) validateFaultAxis() error {
	for _, a := range p.Axes {
		if a.Name != "fault" {
			continue
		}
		sawNone := false
		for _, v := range a.Values {
			if v == "none" {
				sawNone = true
				continue
			}
			if _, ok := p.Faults[v]; !ok {
				return fmt.Errorf("%w: %q", ErrUnknownFault, v)
			}
			if !sawNone {
				return fmt.Errorf("%w: no fault=none cell precedes fault=%s (its slowdown, checksum and derived times need the clean run)", ErrFaultTimeline, v)
			}
		}
	}
	return nil
}

// validate rejects timelines where a node revives at or before its
// crash — in the derived fractions or in the explicit DSL schedule.
func (fs *FaultSpec) validate() error {
	if fs.parsed == nil {
		pp, err := faults.ParseSpec(fs.Spec)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadPlan, err)
		}
		fs.parsed = pp
	}
	if fs.CrashFrac.Den > 0 && fs.CrashFrac.Num <= 0 {
		return fmt.Errorf("%w: crash fraction must be positive", ErrFaultTimeline)
	}
	if fs.ReviveFrac.Den > 0 {
		if fs.CrashFrac.Den == 0 && len(fs.parsed.Crashes) == 0 {
			return fmt.Errorf("%w: revive without a crash", ErrFaultTimeline)
		}
		if fs.CrashFrac.Den > 0 && fs.ReviveNode == fs.CrashNode &&
			fs.ReviveFrac.Num*fs.CrashFrac.Den <= fs.CrashFrac.Num*fs.ReviveFrac.Den {
			return fmt.Errorf("%w: node %d revives at %d/%d but crashes at %d/%d",
				ErrFaultTimeline, fs.ReviveNode, fs.ReviveFrac.Num, fs.ReviveFrac.Den,
				fs.CrashFrac.Num, fs.CrashFrac.Den)
		}
	}
	for _, rv := range fs.parsed.Revives {
		ok := false
		for _, cr := range fs.parsed.Crashes {
			if cr.Node == rv.Node && rv.At > cr.At {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("%w: node %d revives at %v without an earlier crash", ErrFaultTimeline, rv.Node, rv.At)
		}
	}
	return nil
}

// validateAsserts checks every assertion references cells the matrix
// actually produces.
func (p *Plan) validateAsserts() error {
	ids := map[string]bool{}
	for _, c := range p.Cells() {
		ids[c.ID()] = true
	}
	for i, a := range p.Asserts {
		if a.Metric == "" {
			return fmt.Errorf("%w: assert[%d] has no metric", ErrBadAssert, i)
		}
		if !ids[a.Cell] {
			return fmt.Errorf("%w: assert[%d] cell %q is not in the matrix", ErrBadAssert, i, a.Cell)
		}
		switch a.Op {
		case "eq", "min", "max":
		case "lt_cell", "le_cell", "eq_cell":
			if !ids[a.Other] {
				return fmt.Errorf("%w: assert[%d] comparison cell %q is not in the matrix", ErrBadAssert, i, a.Other)
			}
		default:
			return fmt.Errorf("%w: assert[%d] op %q", ErrBadAssert, i, a.Op)
		}
	}
	return nil
}
