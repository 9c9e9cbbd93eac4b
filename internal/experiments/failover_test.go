package experiments_test

import (
	"os"
	"path/filepath"
	"testing"

	"megammap/internal/plan"
)

// TestFailoverShape runs the failover study (configs/plan-failover.yaml,
// the only driver of it) and checks its shape directly: the faulted run
// reproduces the clean answer, the crash fired exactly once mid-run, and
// the faults cost time.
func TestFailoverShape(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "configs", "plan-failover.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Load(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	clean, ok := r.Cell("fault=none")
	if !ok {
		t.Fatal("plan has no fault=none cell")
	}
	faulted, ok := r.Cell("fault=faulted")
	if !ok {
		t.Fatal("plan has no fault=faulted cell")
	}
	if got := faulted.Digests["checksum_match"]; got != 1 {
		t.Errorf("faulted run diverged from clean run (checksum_match = %d)", got)
	}
	if faulted.Digests["result"] != clean.Digests["result"] {
		t.Errorf("faulted result %d != clean result %d", faulted.Digests["result"], clean.Digests["result"])
	}
	if got := faulted.Digests["fault.crash"]; got != 1 {
		t.Errorf("crash counter = %d, want 1 (crash never fired mid-run)", got)
	}
	if slow := faulted.Metrics["slowdown"]; slow <= 1 {
		t.Errorf("slowdown = %.3f; faults cost nothing, plan likely inert", slow)
	}
}
