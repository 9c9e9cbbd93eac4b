package core

import "testing"

// PoisonFreedBuffers turns on the page-buffer pool's poison hook for the
// rest of the test: every buffer returned to the pool is overwritten with
// poisonByte, so any use after return reads garbage.
func PoisonFreedBuffers(t testing.TB) {
	poisonFreedBufs = true
	t.Cleanup(func() { poisonFreedBufs = false })
}
