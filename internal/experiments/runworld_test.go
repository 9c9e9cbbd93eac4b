package experiments

import (
	"errors"
	"testing"

	"megammap/internal/cluster"
	"megammap/internal/core"
	"megammap/internal/faults"
	"megammap/internal/mpi"
)

// A final stage-out that cannot land must fail the run, not only be
// logged: every PFS write errors, so the dirty pages of a nonvolatile
// vector never reach their backend.
func TestRunWorldReturnsShutdownError(t *testing.T) {
	c := cluster.New(cluster.DefaultTestbed(1))
	c.InstallFaults(faults.Plan{Devices: []faults.DeviceFault{{Node: faults.PFSNode, WriteErr: 1}}})
	d := core.New(c, core.DefaultConfig())
	_, err := runWorld(c, d, 1, func(r *mpi.Rank) error {
		v, err := core.Open[int64](d.NewClient(r.Proc(), r.Node().ID), "file:///out/lost.bin", core.Int64Codec{})
		if err != nil {
			return err
		}
		v.Resize(1024)
		v.SeqTxBegin(0, 1024, core.WriteOnly)
		for i := int64(0); i < 1024; i++ {
			v.Set(i, i)
		}
		v.TxEnd()
		return nil
	})
	var derr *faults.DeviceError
	if !errors.As(err, &derr) {
		t.Fatalf("runWorld error = %v, want the failed stage-out's device error", err)
	}
}
