package core

import (
	"testing"

	"megammap/internal/cluster"
)

func TestBufPoolKeepsOneClassPerCapacity(t *testing.T) {
	d := New(cluster.New(testSpec(1)), testConfig())
	small, large := d.getBuf(4<<10), d.getBuf(12<<10)
	d.putBuf(small)
	d.putBuf(large)
	// Each size gets its own buffer back; neither request drops the
	// other class's buffer on the way.
	if got := d.getBuf(12 << 10); &got[0] != &large[0] {
		t.Error("12 KB request did not reuse the pooled 12 KB buffer")
	}
	if got := d.getBuf(4 << 10); &got[0] != &small[0] {
		t.Error("4 KB request did not reuse the pooled 4 KB buffer")
	}
	if d.bufBytes != 0 {
		t.Errorf("pooled bytes = %d after draining both classes, want 0", d.bufBytes)
	}
}

func TestBufPoolZeroesReusedBuffers(t *testing.T) {
	d := New(cluster.New(testSpec(1)), testConfig())
	b := d.getBuf(64)
	copy(b, "stale page bytes")
	d.putBuf(b[:16]) // a trimmed image re-pools at full capacity
	got := d.getBuf(64)
	if &got[0] != &b[0] || len(got) != 64 {
		t.Fatalf("reused buffer: len %d, same array %v", len(got), &got[0] == &b[0])
	}
	for i, x := range got {
		if x != 0 {
			t.Fatalf("reused buffer byte %d = %#x, want zero", i, x)
		}
	}
}

func TestBufPoolHonorsByteBudget(t *testing.T) {
	d := New(cluster.New(testSpec(1)), testConfig())
	const size = 48 << 10
	n := maxPooledBytes/size + 8
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = d.getBuf(size)
	}
	for _, b := range bufs {
		d.putBuf(b)
	}
	if want := int64(maxPooledBytes / size * size); d.bufBytes != want {
		t.Errorf("pooled bytes = %d, want %d (budget %d)", d.bufBytes, want, maxPooledBytes)
	}
}

func TestPoisonHookFillsReturnedBuffers(t *testing.T) {
	PoisonFreedBuffers(t)
	d := New(cluster.New(testSpec(1)), testConfig())
	b := d.getBuf(64)
	copy(b, "live data")
	d.putBuf(b)
	for i, x := range b {
		if x != poisonByte {
			t.Fatalf("returned buffer byte %d = %#x, want poison %#x", i, x, poisonByte)
		}
	}
}

// TestPoisonedPoolChecksumRepair reruns the repair paths with the pool
// poisoning returned buffers: the corrupt image re-pools while the
// repair's padded replica or re-staged image becomes the page, so any
// aliasing between the two would read back as poison.
func TestPoisonedPoolChecksumRepair(t *testing.T) {
	PoisonFreedBuffers(t)
	t.Run("replica", TestCorruptionRepairedFromReplica)
	t.Run("backend", TestCorruptionRepairedFromBackend)
	t.Run("scrub", TestScrubberRepairsCorruptionAtRest)
}
