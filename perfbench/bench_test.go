package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
)

// testDir makes a data directory inside the package's .bench_build, so
// the store files land on the same disk the benchmark uses rather than
// a temp directory that may be tmpfs.
func testDir(t *testing.T) string {
	t.Helper()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

func requireMetrics(t *testing.T, m metrics, names ...string) {
	t.Helper()
	for _, n := range names {
		if _, ok := m[n]; !ok {
			t.Errorf("metric %s missing (have %d metrics)", n, len(m))
		}
	}
}

func TestRefusesTmpfs(t *testing.T) {
	var st syscall.Statfs_t
	if err := syscall.Statfs("/dev/shm", &st); err != nil || fsNames[int64(st.Type)] != "tmpfs" {
		t.Skip("no tmpfs at /dev/shm")
	}
	err := checkMedium("/dev/shm")
	if err == nil || !strings.Contains(err.Error(), "tmpfs") {
		t.Fatalf("checkMedium(/dev/shm) = %v, want a refusal naming tmpfs", err)
	}
	if err := checkMedium(testDir(t)); err != nil {
		t.Fatalf("checkMedium on the package's own disk: %v", err)
	}
}

func TestRespWriteShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a server for a second")
	}
	for _, traced := range []bool{false, true} {
		res, notes, err := run("resp-write", 1, 1, traced, testDir(t))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted <= respSpecs["resp-write"].keys {
			t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d notes=%v", traced, res.Correct, res.Failed, res.Attempted, notes)
		}
		if traced {
			requireMetrics(t, res.Info, "server.set.handler_us_p50", "server.multi.handler_us_p50",
				"core.commit_wait_us_p50", "core.ops_per_batch", "mmapdev.fence_us_p50", "mmapdev.pages_per_fence",
				"mmapdev.fences_per_write", "alloc.allocs_per_write", "alloc.recovery.live_blocks",
				"client.write_p99_ms", "client.write_p99_ms_beyond", "trace.overhead_frac")
			if m := res.Info["mmapdev.lines_per_fence"].Value; m < res.Info["mmapdev.pages_per_fence"].Value {
				t.Errorf("lines per fence %v below pages per fence: every page holds a noted line", m)
			}
			continue
		}
		requireMetrics(t, res.Info, "write_ops_per_s", "write_p50_ms", "recovery_s", "write_amp", "space_amp")
		if sa := res.Info["space_amp"].Value; sa < 1 {
			t.Errorf("space_amp = %v: the heap cannot hold the live keys in fewer bytes than they have", sa)
		}
	}
}

// TestRespReadShortRun runs the resp-read shape over a small key space
// (the full 100k-key preload takes seconds per set-up).
func TestRespReadShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a server for a second")
	}
	spec := respSpecs["resp-read"]
	spec.keys = 2_000
	tr := newTracer()
	r, err := runRESP(spec, testDir(t), 3, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.mismatch != 0 || r.checked != spec.keys {
		t.Fatalf("read-back checked %d of %d keys, %d wrong: %v", r.checked, spec.keys, r.mismatch, r.auditErr)
	}
	for _, c := range r.conns {
		if c.failed != 0 {
			t.Fatalf("connection failed %d ops: %v", c.failed, c.err)
		}
	}
	layers, e2e, info := metrics{}, metrics{}, metrics{}
	r.layerMetrics(tr, layers, info)
	r.endToEnd(e2e, info)
	r.wallClock(info, "")
	if err := checkNames(layers, layerNames); err != nil {
		t.Error(err)
	}
	if err := checkNames(e2e, endToEndNames); err != nil {
		t.Error(err)
	}
	requireMetrics(t, info, "read_ops_per_s", "read_p50_us", "recovery_s", "space_amp",
		"server.get.handler_us_p50", "server.get.outside_handler_us", "server.set.handler_us_p50",
		"client.read_p99_us", "client.read_p999_us", "client.write_ops_per_s", "client.read_p50_us")
}

// TestReadBackCatchesLostWrite checks the durability audit itself: a
// key whose last acknowledged value is not what the store holds fails
// the run.
func TestReadBackCatchesLostWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a store")
	}
	spec := respSpec{keys: 300, writers: 1, arenaBytes: 64 << 20}
	dir := testDir(t)
	path := filepath.Join(dir, "store.pm")
	st, _, err := openStore(path, spec.arenaBytes, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := preload(st.db, spec.keys); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	run := &respRun{spec: spec, conns: []*connResult{{last: map[int]*expect{
		7: {val: makeValue(7, "w0", 1)}, // acknowledged, but never written
	}}}}
	if err := run.reattach(path); err != nil {
		t.Fatal(err)
	}
	if run.checked != spec.keys || run.mismatch != 1 || run.auditErr == nil {
		t.Fatalf("checked %d, mismatched %d (%v): want all %d checked and key 7 caught", run.checked, run.mismatch, run.auditErr, spec.keys)
	}
}

func TestPaperSimRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Table 2 suite twice")
	}
	for _, traced := range []bool{false, true} {
		res, notes, err := run("paper-sim", 5, 1, traced, "")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("traced=%v: correct=%v failed=%d notes=%v", traced, res.Correct, res.Failed, notes)
		}
		if traced {
			requireMetrics(t, res.Info, "funcds.map.sim_ns_per_op", "cachesim.memcached.l1d_miss_ratio", "alloc.vector.bytes_per_op")
			continue
		}
		requireMetrics(t, res.Info, "sim_ops_per_s")
		if b := res.Metrics["alloc_bytes_per_op"].Value; b <= 0 {
			t.Errorf("alloc_bytes_per_op = %v: MOD's updates copy nodes", b)
		}
	}
	a, err := runSimPass(500, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSimPass(500, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCounts(a, b); err != nil {
		t.Fatalf("same seed, different counts: %v", err)
	}
	b[3].Flushes++
	if sameCounts(a, b) == nil {
		t.Fatal("sameCounts missed a changed flush count")
	}
}

// TestManifestNames checks that BENCHMARK.json at the repository root
// declares exactly the metrics the result line carries.
func TestManifestNames(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var manifest struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		section  string
		declared []struct{ Name string }
		printed  []string
	}{{"end_to_end", manifest.EndToEnd, endToEndNames}, {"per_layer", manifest.PerLayer, layerNames}} {
		var names []string
		for _, m := range c.declared {
			names = append(names, m.Name)
		}
		if !slices.Equal(names, c.printed) {
			t.Errorf("BENCHMARK.json %s declares %v, the result line carries %v", c.section, names, c.printed)
		}
	}
}
