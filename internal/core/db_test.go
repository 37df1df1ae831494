package core

import (
	"errors"
	"fmt"
	"testing"

	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

func dbConfig() pmem.Config {
	cfg := pmem.DefaultConfig(16 << 20)
	cfg.TrackDurable = true
	return cfg
}

// TestOpenSingleRoundtrip covers the single-heap Open path: fresh open,
// writes, crash, reopen via WithExistingImages.
func TestOpenSingleRoundtrip(t *testing.T) {
	db, info, err := Open(dbConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if info.Recovered {
		t.Fatal("fresh open reported Recovered")
	}
	if db.Store() == nil || db.Sharded() != nil || db.ShardCount() != 1 {
		t.Fatal("single open did not wrap a plain Store")
	}
	m, err := db.Map("users")
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	m.Set([]byte("ada"), []byte("lovelace"))
	db.Sync()
	imgs := db.CrashImages(pmem.CrashFencedOnly, 1)
	if len(imgs) != 1 {
		t.Fatalf("single CrashImages returned %d images", len(imgs))
	}

	db2, info2, err := Open(dbConfig(), WithExistingImages(imgs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if !info2.Recovered || len(info2.PerShard) != 1 {
		t.Fatalf("reopen info = %+v, want Recovered with 1 shard entry", info2)
	}
	m2, err := db2.Map("users")
	if err != nil {
		t.Fatalf("map after reopen: %v", err)
	}
	if v, ok := m2.Get([]byte("ada")); !ok || string(v) != "lovelace" {
		t.Fatalf("lost committed write: %q %v", v, ok)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestOpenShardedRoundtrip covers the sharded Open path, including the
// image-count-driven shard inference on reopen.
func TestOpenShardedRoundtrip(t *testing.T) {
	db, _, err := Open(dbConfig(), WithShards(4), WithCommitter(0))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if db.Sharded() == nil || db.ShardCount() != 4 {
		t.Fatal("sharded open did not wrap a ShardedStore")
	}
	maps := make([]*Map, 8)
	for i := range maps {
		m, err := db.Map(fmt.Sprintf("kv:%d", i))
		if err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
		maps[i] = m
	}
	b := db.Batch()
	for i, m := range maps {
		b.MapSet(m, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	tk := b.CommitAsync()
	tk.Wait()
	if err := tk.Err(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	imgs := db.CrashImages(pmem.CrashFencedOnly, 1)
	if len(imgs) != 5 {
		t.Fatalf("sharded CrashImages returned %d images, want 5", len(imgs))
	}

	db2, info, err := Open(dbConfig(), WithExistingImages(imgs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if !info.Recovered || len(info.PerShard) != 4 || db2.ShardCount() != 4 {
		t.Fatalf("reopen info = %+v shards = %d", info, db2.ShardCount())
	}
	for i := 0; i < 8; i++ {
		m, err := db2.Map(fmt.Sprintf("kv:%d", i))
		if err != nil {
			t.Fatalf("map %d after reopen: %v", i, err)
		}
		if _, ok := m.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("lost acked batch write k%d", i)
		}
	}
	db.Close()
}

// TestOpenOptionsSmoke exercises WithSelective and WithNodeCache through
// a crash roundtrip: selective structures must rebuild their volatile
// navigation on reopen.
func TestOpenOptionsSmoke(t *testing.T) {
	db, _, err := Open(dbConfig(), WithSelective(8), WithNodeCache())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	v, err := db.Vector("log")
	if err != nil {
		t.Fatalf("vector: %v", err)
	}
	for i := uint64(0); i < 50; i++ {
		v.Push(i)
	}
	db.Sync()
	imgs := db.CrashImages(pmem.CrashFencedOnly, 7)

	db2, _, err := Open(dbConfig(), WithExistingImages(imgs), WithSelective(8))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	v2, err := db2.Vector("log")
	if err != nil {
		t.Fatalf("vector after reopen: %v", err)
	}
	if v2.Len() != 50 {
		t.Fatalf("selective vector lost entries: len %d", v2.Len())
	}
	db.Close()
}

// TestOpenShardCountErrors pins the ErrShardCount cases. The region
// count sets the layout — one region is a single heap, k+1 regions are
// k shards plus the metadata region — so WithShards must agree with it
// whether the regions are images or devices.
func TestOpenShardCountErrors(t *testing.T) {
	db, _, err := Open(dbConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	imgs := db.CrashImages(pmem.CrashFencedOnly, 1)
	db.Close()
	odb, _, err := Open(dbConfig(), WithShards(1))
	if err != nil {
		t.Fatalf("one-shard open: %v", err)
	}
	oimgs := odb.CrashImages(pmem.CrashFencedOnly, 1)
	odb.Close()
	sdb, _, err := Open(dbConfig(), WithShards(2))
	if err != nil {
		t.Fatalf("sharded open: %v", err)
	}
	simgs := sdb.CrashImages(pmem.CrashFencedOnly, 1)
	sdb.Close()

	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"WithShards(0)", []Option{WithShards(0)}},
		{"WithShards(-1)", []Option{WithShards(-1)}},
		{"4 shards from one image", []Option{WithExistingImages(imgs), WithShards(4)}},
		{"1 shard from one image", []Option{WithExistingImages(imgs), WithShards(1)}},
		{"1 shard over one device", []Option{WithDevices(pmem.New(dbConfig())), WithShards(1)}},
		{"zero images", []Option{WithExistingImages([][]byte{})}},
		{"2 shards from 2 images", []Option{WithExistingImages(oimgs), WithShards(2)}},
		{"3 shards from 2-shard images", []Option{WithExistingImages(simgs), WithShards(3)}},
	} {
		if _, _, err := Open(dbConfig(), tc.opts...); !errors.Is(err, ErrShardCount) {
			t.Errorf("%s: %v, want ErrShardCount", tc.name, err)
		}
	}

	if db2, _, err := Open(dbConfig(), WithExistingImages(simgs)); err != nil {
		t.Fatalf("shard inference from images failed: %v", err)
	} else {
		if db2.ShardCount() != 2 {
			t.Fatalf("inferred %d shards, want 2", db2.ShardCount())
		}
		db2.Close()
	}
}

// TestOpenRejectedKeepsCheckpointInterval checks that an Open rejected
// for its options leaves the process-wide checkpoint interval alone:
// WithSelective's interval applies only once validation has passed.
func TestOpenRejectedKeepsCheckpointInterval(t *testing.T) {
	before := funcds.CheckpointEvery()
	want := before + 3
	for _, opts := range [][]Option{
		{WithDevices(pmem.New(dbConfig())), WithExistingImages([][]byte{nil}), WithSelective(int(want))},
		{WithShards(0), WithSelective(int(want))},
		{WithAttach(), WithSelective(int(want))},
	} {
		if _, _, err := Open(dbConfig(), opts...); err == nil {
			t.Fatal("invalid options accepted")
		}
		if got := funcds.CheckpointEvery(); got != before {
			funcds.SetCheckpointEvery(before)
			t.Fatalf("rejected Open changed the checkpoint interval: %d, want %d", got, before)
		}
	}
}

// TestSentinelErrors pins errors.Is dispatch for the root-binding
// failures the server layer maps onto protocol errors.
func TestSentinelErrors(t *testing.T) {
	db, _, err := Open(dbConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if _, err := db.Map("__mod_internal"); !errors.Is(err, ErrReservedRootName) {
		t.Fatalf("reserved name: %v, want ErrReservedRootName", err)
	}
	if _, err := db.Map("things"); err != nil {
		t.Fatalf("map: %v", err)
	}
	if _, err := db.Vector("things"); !errors.Is(err, ErrWrongRootKind) {
		t.Fatalf("rebinding map root as vector: %v, want ErrWrongRootKind", err)
	}
	if _, err := db.Stack("things"); !errors.Is(err, ErrWrongRootKind) {
		t.Fatalf("rebinding map root as stack: %v, want ErrWrongRootKind", err)
	}
	// Map and Set share the CHAMP header, so rebinding across those two
	// is allowed by construction; a queue root must still reject both.
	if _, err := db.Queue("q"); err != nil {
		t.Fatalf("queue: %v", err)
	}
	if _, err := db.Set("q"); !errors.Is(err, ErrWrongRootKind) {
		t.Fatalf("rebinding queue root as set: %v, want ErrWrongRootKind", err)
	}
	if _, err := db.Store().Parent("things", "a"); !errors.Is(err, ErrWrongRootKind) {
		t.Fatalf("rebinding map root as parent: %v, want ErrWrongRootKind", err)
	}
}

// TestCloseIdempotent checks Close/Sync safety: twice, after Sync,
// after a failed open, and binding/committing after Close.
func TestCloseIdempotent(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, _, err := Open(dbConfig(), WithShards(shards), WithCommitter(0))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			m, err := db.Map("kv:0")
			if err != nil {
				t.Fatalf("map: %v", err)
			}
			m.Set([]byte("k"), []byte("v"))
			if err := db.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			db.Sync() // must not deadlock or panic after close

			if _, err := db.Map("late"); !errors.Is(err, ErrStoreClosed) {
				t.Fatalf("bind after close: %v, want ErrStoreClosed", err)
			}
			b := db.Batch()
			b.MapSet(m, []byte("k2"), []byte("v2"))
			tk := b.CommitAsync()
			tk.Wait() // must resolve, not hang on a stopped committer
			if !errors.Is(tk.Err(), ErrStoreClosed) {
				t.Fatalf("CommitAsync after close: %v, want ErrStoreClosed", tk.Err())
			}
		})
	}

	// A failed open returns a nil DB; deferred Close/Sync must not panic.
	db, _, err := Open(dbConfig(), WithShards(0))
	if err == nil {
		t.Fatal("expected open failure")
	}
	db.Close()
	db.Sync()
}

// TestKVInterface drives the same workload through every KV
// implementation to pin the interface contract.
func TestKVInterface(t *testing.T) {
	open := map[string]func(t *testing.T) KV{
		"store": func(t *testing.T) KV {
			db, _, err := Open(dbConfig())
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			return db.Store()
		},
		"sharded": func(t *testing.T) KV {
			db, _, err := Open(dbConfig(), WithShards(2))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			return db.Sharded()
		},
		"db": func(t *testing.T) KV {
			db, _, err := Open(dbConfig(), WithShards(2))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			return db
		},
	}
	for name, mk := range open {
		t.Run(name, func(t *testing.T) {
			kv := mk(t)
			defer kv.Close()
			w := kv.ForkKV()
			m, err := w.Map("m")
			if err != nil {
				t.Fatalf("map: %v", err)
			}
			q, err := w.Queue("q")
			if err != nil {
				t.Fatalf("queue: %v", err)
			}
			b := w.Batch()
			b.MapSet(m, []byte("k"), []byte("v"))
			b.QueueEnqueue(q, 42)
			if b.Len() != 2 {
				t.Fatalf("batch len %d", b.Len())
			}
			tk := b.CommitAsync()
			tk.Wait()
			if err := tk.Err(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			w.Sync()
			if _, ok := m.Get([]byte("k")); !ok {
				t.Fatal("map write lost")
			}
			if v, ok := q.Peek(); !ok || v != 42 {
				t.Fatal("queue write lost")
			}
			if kv.Stats().Fences == 0 {
				t.Fatal("stats not wired")
			}
		})
	}
}
