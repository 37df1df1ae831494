package harness

import (
	"fmt"

	"github.com/mod-ds/mod/internal/workloads"
)

// GroupCommitBatchSizes is the batch-size sweep of the group-commit
// experiment (1 = the unbatched one-fence-per-FASE baseline).
var GroupCommitBatchSizes = []int{1, 4, 16, 64, 256}

// GroupCommitShardCounts sweeps publication paths: 1 root exercises the
// single atomic-swap publish, 4 roots the multi-root batch record.
var GroupCommitShardCounts = []int{1, 4}

// GroupCommitBenchConfig derives a deterministic group-commit workload
// size from a Scale.
func GroupCommitBenchConfig(scale Scale, batchSize, shards int) workloads.GroupCommitConfig {
	return workloads.GroupCommitConfig{
		BatchSize:   batchSize,
		Shards:      shards,
		Ops:         scale.Ops,
		PreloadKeys: max(scale.Ops/16, 64),
		Seed:        0x6c0de,
	}
}

// GroupCommit measures fences/op and throughput as the batch size grows:
// the whole point of group commit is that one flush+sfence epoch covers
// B operations, so fences/op falls as 1/B (single root) or 2/B (batch
// record across roots) while throughput climbs. The final row repeats
// the largest batch through the async background committer with
// concurrent producers, for information.
func GroupCommit(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "groupcommit",
		Title: "group commit: fence amortization vs batch size (MOD engine)",
		Note:  "sync rows are deterministic and gated by cmd/benchdiff; async row is informational",
		Header: []string{"batch", "shards", "mode", "ops", "batches", "fences/op", "flushes/op",
			"ops/s", "speedup"},
	}
	var base float64
	for _, shards := range GroupCommitShardCounts {
		for _, bsz := range GroupCommitBatchSizes {
			res, err := workloads.RunGroupCommit(GroupCommitBenchConfig(scale, bsz, shards))
			if err != nil {
				return nil, err
			}
			if base == 0 {
				base = res.OpsPerSec
			}
			t.AddRow(
				fmt.Sprintf("%d", res.BatchSize),
				fmt.Sprintf("%d", res.Shards),
				"sync",
				fmt.Sprintf("%d", res.Ops),
				fmt.Sprintf("%d", res.Batches),
				f3(res.FencesPerOp),
				f2(res.FlushesPerOp),
				f1(res.OpsPerSec),
				fmt.Sprintf("%.2fx", res.OpsPerSec/base),
			)
		}
	}
	cfg := GroupCommitBenchConfig(scale, GroupCommitBatchSizes[len(GroupCommitBatchSizes)-1], 4)
	cfg.Async = true
	cfg.Writers = 2
	res, err := workloads.RunGroupCommit(cfg)
	if err != nil {
		return nil, err
	}
	t.AddRow(
		fmt.Sprintf("%d", res.BatchSize), "4", "async",
		fmt.Sprintf("%d", res.Ops),
		fmt.Sprintf("%d", res.Batches),
		f3(res.FencesPerOp),
		f2(res.FlushesPerOp),
		f1(res.OpsPerSec),
		"-",
	)
	return t, nil
}
