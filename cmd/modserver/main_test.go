package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/pmem/mmapdev"
)

const testArena = 4 << 20

// openDir runs openFileBacked with the options main builds for -shards.
func openDir(t *testing.T, dir string, shards int) (*core.DB, core.RecoveryInfo, error) {
	t.Helper()
	var opts []core.Option
	if shards > 1 {
		opts = append(opts, core.WithShards(shards))
	}
	db, info, err := openFileBacked(dir, testArena, shards, opts)
	if errors.Is(err, mmapdev.ErrUnsupported) {
		t.Skip("mmap backend unsupported on this platform")
	}
	return db, info, err
}

// closeDir closes the store and unmaps its files.
func closeDir(t *testing.T, db *core.DB) {
	t.Helper()
	var devs []pmem.Backend
	if ss := db.Sharded(); ss != nil {
		devs = ss.Regions().Devices()
	} else {
		devs = []pmem.Backend{db.Store().Device()}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		if err := d.(*mmapdev.Device).Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenFileBackedReopen formats a directory, writes, and reattaches
// with the same -shards: the write survives.
func TestOpenFileBackedReopen(t *testing.T) {
	for _, shards := range []int{1, 2} {
		dir := t.TempDir()
		db, info, err := openDir(t, dir, shards)
		if err != nil {
			t.Fatalf("shards=%d: format: %v", shards, err)
		}
		if info.Recovered {
			t.Fatalf("shards=%d: fresh directory reported Recovered", shards)
		}
		m, err := db.Map("m")
		if err != nil {
			t.Fatal(err)
		}
		m.Set([]byte("k"), []byte("v"))
		closeDir(t, db)

		db, info, err = openDir(t, dir, shards)
		if err != nil {
			t.Fatalf("shards=%d: reopen: %v", shards, err)
		}
		if !info.Recovered || db.ShardCount() != shards {
			t.Fatalf("shards=%d: reopen recovered=%v with %d shards", shards, info.Recovered, db.ShardCount())
		}
		m, err = db.Map("m")
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := m.Get([]byte("k")); !ok || string(v) != "v" {
			t.Fatalf("shards=%d: write lost across reopen: %q %v", shards, v, ok)
		}
		closeDir(t, db)
	}
}

// TestOpenFileBackedRefusesOtherLayout reopens a directory with a
// -shards that does not match its files, in both directions: the open
// fails naming the existing file and creates no file of the other
// layout.
func TestOpenFileBackedRefusesOtherLayout(t *testing.T) {
	for _, tc := range []struct {
		made, asked     int
		existing, fresh string
	}{
		{made: 1, asked: 4, existing: "store.pm", fresh: "shard0.pm"},
		{made: 2, asked: 1, existing: "shard0.pm", fresh: "store.pm"},
	} {
		dir := t.TempDir()
		db, _, err := openDir(t, dir, tc.made)
		if err != nil {
			t.Fatal(err)
		}
		closeDir(t, db)

		_, _, err = openDir(t, dir, tc.asked)
		if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, tc.existing)) {
			t.Fatalf("-shards %d over a -shards %d directory: %v, want an error naming %s", tc.asked, tc.made, err, tc.existing)
		}
		if _, err := os.Stat(filepath.Join(dir, tc.fresh)); err == nil {
			t.Fatalf("-shards %d created %s beside the existing store", tc.asked, tc.fresh)
		}
	}
}
