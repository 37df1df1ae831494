package harness

import (
	"errors"
	"testing"

	"github.com/mod-ds/mod/internal/pmem/mmapdev"
)

// TestMmapRowsOneSyncPerFence checks the mmap backend's one-sync rule
// on every row of the mmap sweep: each fence a structure's per-op
// commits issue costs exactly one msync, however its noted lines are
// scattered.
func TestMmapRowsOneSyncPerFence(t *testing.T) {
	for _, w := range MmapWorkloads {
		res, err := RunMmapBench(w, 200, t.TempDir())
		if errors.Is(err, mmapdev.ErrUnsupported) {
			t.Skip("mmap backend unsupported on this platform")
		}
		if err != nil {
			t.Fatal(err)
		}
		row := mmapRow(res)
		if res.CommitFences < uint64(res.Ops) {
			t.Fatalf("%s: %d commit fences for %d ops", w, res.CommitFences, res.Ops)
		}
		if row.MsyncsPerFence != 1 {
			t.Errorf("%s: msyncs_per_fence = %v (%d msyncs over %d commit fences), want 1", w, row.MsyncsPerFence, res.Syncs, res.CommitFences)
		}
		if row.SyncKiBPerFence < 4 {
			t.Errorf("%s: sync_kib_per_fence = %v, want at least one page", w, row.SyncKiBPerFence)
		}
		t.Logf("%s: %d commit fences, %.2f msyncs/fence, %.1f KiB/fence", w, res.CommitFences, row.MsyncsPerFence, row.SyncKiBPerFence)
	}
}
