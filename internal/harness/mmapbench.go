package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/pmem/mmapdev"
)

// The mmap-backend sweep: the five recoverable structures driven
// through the identical core.Open front door, but over a file-backed
// mmapdev device instead of the simulator. These rows answer "does the
// deployable backend still move" — they run on the wall clock (real
// msync, real scheduling), so benchdiff tracks their presence and never
// gates their values, exactly like the server sweep. The fence and
// flush counts are the same fence discipline the simulator measures;
// comparing fences/op across the two backends is the honest check that
// the ordering model transfers. Each row also carries the msyncs the
// commit fences issued and the bytes they covered: one msync per fence
// is the backend's rule (DESIGN.md §14), and the bytes show how wide the
// noted span of a FASE runs on a real file. The closing Sync is left
// out of those two columns: its fences may find nothing noted, and a
// fence with nothing to write back issues no msync.

// MmapWorkloads lists the structures the mmap sweep drives, in report
// order.
var MmapWorkloads = []string{"map", "set", "vector", "stack", "queue"}

// MmapBenchResult is one structure's run over the mmap backend.
type MmapBenchResult struct {
	Workload  string
	Ops       int
	ElapsedNs float64 // wall-clock
	Fences    uint64
	Flushes   uint64
	// CommitFences counts the fences before the closing Sync; Syncs and
	// SyncBytes are the msync calls they issued and the bytes covered.
	CommitFences uint64
	Syncs        uint64
	SyncBytes    uint64
}

// RunMmapBench runs ops operations of the named structure workload over
// a fresh file-backed store in dir (a temp dir when empty). It returns
// mmapdev.ErrUnsupported on platforms without the backend.
func RunMmapBench(workload string, ops int, dir string) (MmapBenchResult, error) {
	var res MmapBenchResult
	if dir == "" {
		d, err := os.MkdirTemp("", "modbench-mmap")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	// Shadow updates allocate fresh nodes per FASE; size the arena to
	// the workload instead of modeling the allocator.
	size := int64(ops)*2048 + (32 << 20)
	dev, err := mmapdev.Create(filepath.Join(dir, workload+".pm"), size)
	if err != nil {
		return res, err
	}
	defer dev.Close()
	db, _, err := core.Open(pmem.Config{}, core.WithDevices(dev))
	if err != nil {
		return res, err
	}
	defer db.Close()

	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("val-%08d", i)) }
	start := time.Now()
	before := dev.Stats()
	syncs0, syncBytes0 := dev.Syncs()
	switch workload {
	case "map":
		m, err := db.Map("bench")
		if err != nil {
			return res, err
		}
		for i := 0; i < ops; i++ {
			m.Set(key(i), val(i))
		}
	case "set":
		s, err := db.Set("bench")
		if err != nil {
			return res, err
		}
		for i := 0; i < ops; i++ {
			s.Insert(key(i))
		}
	case "vector":
		v, err := db.Vector("bench")
		if err != nil {
			return res, err
		}
		for i := 0; i < ops; i++ {
			v.Push(uint64(i))
		}
	case "stack":
		s, err := db.Stack("bench")
		if err != nil {
			return res, err
		}
		for i := 0; i < ops; i++ {
			s.Push(uint64(i))
		}
	case "queue":
		q, err := db.Queue("bench")
		if err != nil {
			return res, err
		}
		for i := 0; i < ops; i++ {
			q.Enqueue(uint64(i))
		}
	default:
		return res, fmt.Errorf("mmap bench: unknown workload %q", workload)
	}
	commitFences := dev.Stats().Fences - before.Fences
	syncs, syncBytes := dev.Syncs()
	db.Sync()
	after := dev.Stats()
	res = MmapBenchResult{
		Workload:     workload,
		Ops:          ops,
		ElapsedNs:    float64(time.Since(start).Nanoseconds()),
		Fences:       after.Fences - before.Fences,
		Flushes:      after.Flushes - before.Flushes,
		CommitFences: commitFences,
		Syncs:        syncs - syncs0,
		SyncBytes:    syncBytes - syncBytes0,
	}
	return res, nil
}

// mmapRow converts a run into its BENCH.json row.
func mmapRow(res MmapBenchResult) BenchMmap {
	row := BenchMmap{
		Workload:    res.Workload,
		Ops:         res.Ops,
		ElapsedNs:   res.ElapsedNs,
		OpsPerSec:   float64(res.Ops) / (res.ElapsedNs / 1e9),
		Fences:      res.Fences,
		Flushes:     res.Flushes,
		FencesPerOp: float64(res.Fences) / float64(res.Ops),
	}
	if res.CommitFences > 0 {
		row.MsyncsPerFence = float64(res.Syncs) / float64(res.CommitFences)
		row.SyncKiBPerFence = float64(res.SyncBytes) / 1024 / float64(res.CommitFences)
	}
	return row
}
