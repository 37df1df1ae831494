package alloc

import (
	"fmt"
	"sync"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// A sharded store keeps one independent Heap per device region and
// recovers them concurrently, one goroutine per heap. These tests pin the
// allocator-level property that makes that safe: heaps on different
// devices share no state, so formatting never aliases and a concurrent
// recovery reports exactly what recovering each heap alone reports.

// crashedHeapImages builds one heap per shard with a committed two-node
// chain under root "root-<s>" and s+1 leaked blocks from an interrupted
// FASE, and returns the fenced-only crash image of each device together
// with the committed parent address of each shard.
func crashedHeapImages(t *testing.T, cfg pmem.Config, shards int) ([][]byte, []pmem.Addr) {
	t.Helper()
	var (
		imgs    [][]byte
		parents []pmem.Addr
	)
	for s := 0; s < shards; s++ {
		dev := pmem.New(cfg)
		h := Format(dev)
		registerPairWalker(h)
		slot, err := h.RootSlot(fmt.Sprintf("root-%d", s))
		if err != nil {
			t.Fatal(err)
		}
		child := h.Alloc(16, tagPair)
		dev.WriteU64(child, 0)
		dev.WriteU64(child+8, 0)
		parent := h.Alloc(16, tagPair)
		dev.WriteAddr(parent, child)
		dev.WriteU64(parent+8, 0)
		dev.FlushRange(child, 16)
		dev.FlushRange(parent, 16)
		dev.Sfence()
		h.SetRoot(slot, parent)
		dev.Sfence()
		parents = append(parents, parent)
		for i := 0; i <= s; i++ {
			h.Alloc(16, tagPair) // never committed: a leak
		}
		dev.Sfence() // headers durable, so recovery sees (and sweeps) the leaks
		imgs = append(imgs, dev.CrashImage(pmem.CrashFencedOnly, uint64(s)+1))
	}
	return imgs, parents
}

// openHeaps attaches one heap per crash image, each on its own device.
func openHeaps(t *testing.T, cfg pmem.Config, imgs [][]byte) ([]*Heap, []pmem.Backend) {
	t.Helper()
	heaps := make([]*Heap, len(imgs))
	devs := make([]pmem.Backend, len(imgs))
	for s, img := range imgs {
		devs[s] = pmem.NewFromImage(cfg, img)
		h, err := Open(devs[s])
		if err != nil {
			t.Fatalf("heap %d: %v", s, err)
		}
		registerPairWalker(h)
		heaps[s] = h
	}
	return heaps, devs
}

// TestRecoverAllParallelMatchesSequential builds several independent
// heaps with live chains and leaked blocks, crashes them, and checks that
// recovering all of them concurrently, one goroutine per heap, reports
// exactly what per-heap sequential recovery reports: live state intact,
// leaks swept, on every shard.
func TestRecoverAllParallelMatchesSequential(t *testing.T) {
	const shards = 4
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	imgs, parents := crashedHeapImages(t, cfg, shards)

	seqHeaps, _ := openHeaps(t, cfg, imgs)
	seq := make([]RecoveryStats, shards)
	for s, h := range seqHeaps {
		rs, err := h.Recover()
		if err != nil {
			t.Fatalf("sequential heap %d: %v", s, err)
		}
		seq[s] = rs
	}

	heaps, devs := openHeaps(t, cfg, imgs)
	stats := make([]RecoveryStats, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s, h := range heaps {
		wg.Add(1)
		go func(s int, h *Heap) {
			defer wg.Done()
			stats[s], errs[s] = h.Recover()
		}(s, h)
	}
	wg.Wait()

	for s, rs := range stats {
		if errs[s] != nil {
			t.Fatalf("parallel heap %d: %v", s, errs[s])
		}
		if rs != seq[s] {
			t.Errorf("shard %d: parallel %+v, sequential %+v", s, rs, seq[s])
		}
		if rs.LiveBlocks != 2 {
			t.Errorf("shard %d: live blocks = %d, want 2", s, rs.LiveBlocks)
		}
		if rs.LeakedBlocks != s+1 {
			t.Errorf("shard %d: leaked blocks = %d, want %d", s, rs.LeakedBlocks, s+1)
		}
		if rs.Roots != 1 {
			t.Errorf("shard %d: roots = %d, want 1", s, rs.Roots)
		}
		slot, err := heaps[s].RootSlot(fmt.Sprintf("root-%d", s))
		if err != nil {
			t.Fatal(err)
		}
		parent := heaps[s].Root(slot)
		if parent != parents[s] {
			t.Errorf("shard %d: root = %#x, want %#x", s, uint64(parent), uint64(parents[s]))
		}
		child := devs[s].ReadAddr(parent)
		if heaps[s].RefCount(child) != 1 {
			t.Errorf("shard %d: child refcount = %d, want 1", s, heaps[s].RefCount(child))
		}
	}
}

// TestFormatAllIndependentHeaps checks that heaps formatted on separate
// devices start from the same layout yet never alias: allocations and
// writes on one stay out of the other's region.
func TestFormatAllIndependentHeaps(t *testing.T) {
	devs := []pmem.Backend{
		pmem.New(pmem.DefaultConfig(1 << 20)),
		pmem.New(pmem.DefaultConfig(1 << 20)),
	}
	heaps := make([]*Heap, len(devs))
	for i, dev := range devs {
		heaps[i] = Format(dev)
	}
	a := heaps[0].Alloc(32, 1)
	b := heaps[1].Alloc(32, 1)
	if a != b {
		t.Fatalf("same bump position expected on fresh heaps: %#x vs %#x", uint64(a), uint64(b))
	}
	if devs[0].Stats().Writes == 0 || devs[1].Stats().Writes == 0 {
		t.Fatal("both devices should have seen writes")
	}
	// Writing one heap's block must not appear in the other region.
	devs[0].WriteU64(a, 0xdead)
	if devs[1].ReadU64(b) == 0xdead {
		t.Fatal("regions alias")
	}
}
