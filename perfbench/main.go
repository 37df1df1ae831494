// Command perfbench is the repository's benchmark. It drives the real
// MOD stack from outside, through public functions only, and prints
// every metric by name with its unit, then one JSON line:
//
//	go run . --workload resp-write --seed 1 --seconds 10 --trace 0
//
// Workloads: resp-write and resp-read run a RESP server on a loopback
// TCP listener over a store on mmap'd files (core.Open with
// core.WithDevices over mmapdev) and check every acknowledged write
// after a clean close and reattach; paper-sim runs the nine Table 2
// workloads on the MOD engine in the PM simulator and checks that
// repeated passes give identical counts. --trace 1 installs timing
// wrappers through the parameters the program already takes and prints
// the per-layer metrics instead. README.md lists the metrics and what
// each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	// Info holds figures printed for the reader but left out of the
	// result line: those only some workloads have.
	Info metrics `json:"-"`
}

func main() {
	var (
		workload = flag.String("workload", "", "resp-write, resp-read or paper-sim")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same keys, values and operations")
		seconds  = flag.Int("seconds", 10, "length of the measured phase")
		traceOn  = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		dataDir  = flag.String("data", ".bench_build/data", "directory for the mmap'd store files (must not be tmpfs)")
	)
	flag.Parse()
	res, notes, err := run(*workload, *seed, *seconds, *traceOn == 1, *dataDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(res, notes)
}

// run executes one workload and returns its result plus failure notes.
func run(workload string, seed int64, seconds int, traced bool, dataDir string) (result, []string, error) {
	if seconds < 1 {
		return result{}, nil, fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	var (
		res   result
		notes []string
		err   error
	)
	if spec, ok := respSpecs[workload]; ok {
		res, notes, err = respResult(workload, spec, dataDir, seed, seconds, traced)
	} else if workload == "paper-sim" {
		res, notes, err = simResult(uint64(seed), seconds, traced)
	} else {
		return result{}, nil, fmt.Errorf("unknown --workload %q (want resp-write, resp-read or paper-sim)", workload)
	}
	if err != nil {
		return result{}, nil, err
	}
	want := endToEndNames
	if traced {
		want = layerNames
	}
	if err := checkNames(res.Metrics, want); err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", workload, err)
	}
	return res, notes, nil
}

// checkNames checks that m holds exactly the names in want, each with a
// finite value: the result line carries the same metrics on every
// workload.
func checkNames(m metrics, want []string) error {
	for _, name := range want {
		v, ok := m[name]
		if !ok {
			return fmt.Errorf("metric %s missing from the result", name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s has no value (%v): its base was empty", name, v.Value)
		}
	}
	if len(m) != len(want) {
		return fmt.Errorf("result has %d metrics, want the %d in %v", len(m), len(want), want)
	}
	return nil
}

func respResult(workload string, spec respSpec, dataDir string, seed int64, seconds int, traced bool) (result, []string, error) {
	dir := filepath.Join(dataDir, fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer removeSynced(dir)
	if err := checkMedium(dir); err != nil {
		return result{}, nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r, err := runRESP(spec, dir, seed, seconds, tr)
	if err != nil {
		return result{}, nil, err
	}
	res := result{Metrics: metrics{}, Info: metrics{}}
	var notes []string
	for _, c := range r.conns {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.err != nil {
			notes = append(notes, c.err.Error())
		}
	}
	res.Attempted += r.spec.keys
	res.Failed += r.mismatch + (r.spec.keys - r.checked)
	if r.auditErr != nil {
		notes = append(notes, r.auditErr.Error())
	}
	res.Correct = res.Failed == 0
	if traced {
		r.layerMetrics(tr, res.Metrics, res.Info)
	} else {
		r.endToEnd(res.Metrics, res.Info)
		r.wallClock(res.Info, "")
	}
	return res, notes, nil
}

func simResult(seed uint64, seconds int, traced bool) (result, []string, error) {
	r, err := runSim(seed, seconds)
	if err != nil {
		return result{}, nil, err
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0 && r.first != nil, Metrics: metrics{}, Info: metrics{}}
	var notes []string
	if r.err != nil {
		notes = append(notes, r.err.Error())
	}
	if r.first == nil {
		return res, notes, nil
	}
	if traced {
		r.layerMetrics(res.Metrics, res.Info)
	} else {
		r.endToEnd(res.Metrics, res.Info)
	}
	return res, notes, nil
}

// fsNames maps the statfs magic of memory-backed filesystems to their
// names: on them msync is close to free, so the mmapdev figures would
// describe a different medium than the disk the store is meant for.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
}

// checkMedium refuses a data directory on a memory-backed filesystem.
func checkMedium(dir string) error {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return fmt.Errorf("statfs %s: %w", dir, err)
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return fmt.Errorf("data directory %s is on %s, where msync is close to free; put it on a disk-backed filesystem (--data)", dir, name)
	}
	return nil
}

// removeSynced deletes dir and commits the deletion to disk before
// returning. The filesystem discards freed blocks when it commits, so
// this keeps that work out of whatever runs next.
func removeSynced(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: remove data:", err)
		return
	}
	parent, err := os.Open(filepath.Dir(dir))
	if err != nil {
		return
	}
	defer parent.Close()
	if err := parent.Sync(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: sync data directory:", err)
	}
}

// printReport prints one human-readable line per metric, the error
// rate with its base, any failure notes, and the JSON result last.
func printReport(res result, notes []string) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	names = names[:0]
	for n := range res.Info {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s (not in the result line)\n", n, res.Info[n].Value, res.Info[n].Unit)
	}
	fmt.Printf("%-40s %14.6g ratio (%d failed of %d attempted)\n", "error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, n := range notes {
		fmt.Println("failure:", n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
