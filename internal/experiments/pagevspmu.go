package experiments

import (
	"context"
	"fmt"

	"threadcluster/internal/clustering"
	"threadcluster/internal/pagedetect"
	"threadcluster/internal/sched"
	"threadcluster/internal/stats"
)

// DetectorComparison is one row of the PMU-vs-page-protection study: the
// same workload observed by the paper's PMU sampling path and by the
// software-DSM page-protection baseline that Section 1 argues against.
type DetectorComparison struct {
	Workload string
	Approach string // "pmu" or "page"
	// Purity and RandIndex score the detected clusters against ground
	// truth.
	Purity    float64
	RandIndex float64
	// Clusters is the number of >= 2-thread clusters found.
	Clusters int
	// OverheadPercent is detection overhead as a share of all cycles
	// during the detection window.
	OverheadPercent float64
}

// PageVsPMU runs the Section 1 comparison: detection granularity and
// overhead of the PMU path (128-byte lines, hardware-sampled, filtered)
// versus page protection (4KB pages, fault per first touch per epoch).
// The expectation, straight from the paper's motivation: the PMU path
// cleanly separates sharing groups at a fraction of the overhead, while
// the page path suffers false sharing — sub-page structures coalesce and
// a shared allocator interleaves unrelated objects on the same pages.
func PageVsPMU(ctx context.Context, opt Options) ([]DetectorComparison, *stats.Table, error) {
	var rows []DetectorComparison
	for _, workload := range []string{Microbenchmark, JBB} {
		pmuRow, err := pmuDetectorRow(ctx, workload, opt)
		if err != nil {
			return nil, nil, err
		}
		pageRow, err := pageDetectorRow(ctx, workload, opt)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, pmuRow, pageRow)
	}
	t := stats.NewTable("Section 1 study: PMU sampling vs page-protection detection",
		"Workload", "Approach", ">=2-thread clusters", "Purity", "Rand index", "Overhead")
	for _, r := range rows {
		t.AddRow(r.Workload, r.Approach,
			fmt.Sprintf("%d", r.Clusters),
			fmt.Sprintf("%.3f", r.Purity),
			fmt.Sprintf("%.3f", r.RandIndex),
			fmt.Sprintf("%.2f%%", r.OverheadPercent))
	}
	return rows, t, nil
}

func pmuDetectorRow(ctx context.Context, workload string, opt Options) (DetectorComparison, error) {
	spec, err := BuildWorkload(workload, opt.Seed)
	if err != nil {
		return DetectorComparison{}, err
	}
	// Round-robin scatters the sharing groups, so both detectors see
	// plenty of cross-chip sharing to work with.
	m, err := newMachine(MachineConfig(opt, sched.PolicyRoundRobin), spec)
	if err != nil {
		return DetectorComparison{}, err
	}
	eng, err := installEngine(m, ControlledEngineConfig(opt.Seed))
	if err != nil {
		return DetectorComparison{}, err
	}
	if err := m.RunRoundsCtx(ctx, opt.WarmRounds); err != nil {
		return DetectorComparison{}, err
	}
	m.ResetMetrics()
	snap, err := forceDetectionAndWait(ctx, m, eng, 40*opt.EngineRounds)
	if err != nil {
		return DetectorComparison{}, fmt.Errorf("pmu path on %s: %w", workload, err)
	}
	b := m.Breakdown()
	return DetectorComparison{
		Workload:        workload,
		Approach:        "pmu",
		Purity:          clustering.Purity(snap.clusters, truthOf(spec)),
		RandIndex:       clustering.RandIndex(snap.clusters, truthOf(spec)),
		Clusters:        bigClusters(snap.clusters),
		OverheadPercent: 100 * stats.Ratio(float64(m.OverheadCycles()), float64(b.Cycles)),
	}, nil
}

func pageDetectorRow(ctx context.Context, workload string, opt Options) (DetectorComparison, error) {
	spec, err := BuildWorkload(workload, opt.Seed)
	if err != nil {
		return DetectorComparison{}, err
	}
	m, err := newMachine(MachineConfig(opt, sched.PolicyRoundRobin), spec) // scatter, as above
	if err != nil {
		return DetectorComparison{}, err
	}
	det, err := pagedetect.New(pagedetect.DefaultConfig())
	if err != nil {
		return DetectorComparison{}, err
	}
	if err := m.RunRoundsCtx(ctx, opt.WarmRounds); err != nil {
		return DetectorComparison{}, err
	}
	m.ResetMetrics()
	det.Install(m)
	// Give the page path the same wall-clock budget the PMU path's
	// detection typically needs in these configurations.
	if err := m.RunRoundsCtx(ctx, opt.EngineRounds); err != nil {
		return DetectorComparison{}, err
	}
	det.Stop(m)

	clusters := det.Cluster(pagedetect.DefaultClusterConfig())
	b := m.Breakdown()
	return DetectorComparison{
		Workload:        workload,
		Approach:        "page",
		Purity:          clustering.Purity(clusters, truthOf(spec)),
		RandIndex:       clustering.RandIndex(clusters, truthOf(spec)),
		Clusters:        bigClusters(clusters),
		OverheadPercent: 100 * stats.Ratio(float64(m.OverheadCycles()), float64(b.Cycles)),
	}, nil
}

func truthOf(spec interface {
	Truth() map[int]int
}) map[clustering.ThreadKey]int {
	truth := make(map[clustering.ThreadKey]int)
	for id, p := range spec.Truth() {
		truth[clustering.ThreadKey(id)] = p
	}
	return truth
}

func bigClusters(clusters []clustering.Cluster) int {
	n := 0
	for _, c := range clusters {
		if c.Size() >= 2 {
			n++
		}
	}
	return n
}
