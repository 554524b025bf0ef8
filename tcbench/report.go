package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run reports on every workload
// and the final JSON line carries. The workload-specific ones (round and
// job latency, the simulated headlines, fail_frac) are printed beside
// them; see doc.go for why they are not bounded here.
var endToEnd = []metricDef{
	{"refs_per_s", "refs/s", "higher", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_ref", "allocs/ref", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the metrics a traced run reports on every workload. A
// layer a workload does not exercise reads 0 there (the human-readable
// lines say why).
var perLayer = []metricDef{
	{Name: "sim.rounds", Unit: "count", Better: "higher"},
	{Name: "sim.refs", Unit: "count", Better: "higher"},
	{Name: "sim.round_busy_s", Unit: "s", Better: "lower"},
	{Name: "sim.self_share", Unit: "fraction", Better: "lower"},
	{Name: "sim.new_machine_s", Unit: "s", Better: "lower"},
	{Name: "sim.install_s", Unit: "s", Better: "lower"},
	{Name: "workloads.next_ns", Unit: "ns", Better: "lower"},
	{Name: "workloads.next_calls", Unit: "count", Better: "higher"},
	{Name: "workloads.busy_share", Unit: "fraction", Better: "lower"},
	{Name: "workloads.self_share", Unit: "fraction", Better: "lower"},
	{Name: "workloads.build_s", Unit: "s", Better: "lower"},
	{Name: "cache.self_share", Unit: "fraction", Better: "lower"},
	{Name: "cache.remote_frac", Unit: "fraction", Better: "lower"},
	{Name: "cache.l1_miss_frac", Unit: "fraction", Better: "lower"},
	{Name: "cache.invalidations_per_kref", Unit: "1/kref", Better: "lower"},
	{Name: "cache.directory_peak_lines", Unit: "lines", Better: "lower"},
	{Name: "cache.snoop_probes_avoided_per_kref", Unit: "1/kref", Better: "higher"},
	{Name: "pmu.self_share", Unit: "fraction", Better: "lower"},
	{Name: "pmu.handler_overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "sched.self_share", Unit: "fraction", Better: "lower"},
	{Name: "sched.migrations", Unit: "count", Better: "lower"},
	{Name: "sched.steals", Unit: "count", Better: "lower"},
	{Name: "core.tick_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.detect_round_frac", Unit: "fraction", Better: "lower"},
	{Name: "core.activations", Unit: "count", Better: "lower"},
	{Name: "core.migrations", Unit: "count", Better: "lower"},
	{Name: "core.sample_admit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "clustering.detect_tick_ms", Unit: "ms", Better: "lower"},
	{Name: "clustering.self_share", Unit: "fraction", Better: "lower"},
	{Name: "clustering.purity", Unit: "fraction", Better: "higher"},
	{Name: "runtime.self_share", Unit: "fraction", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "fraction", Better: "lower"},
	{Name: "runtime.cpu_util", Unit: "fraction", Better: "higher"},
	{Name: "metrics.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.cell_p50_s", Unit: "s", Better: "lower"},
	{Name: "sweep.pool_busy_frac", Unit: "fraction", Better: "higher"},
	{Name: "server.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "server.payload_bytes", Unit: "bytes", Better: "lower"},
	{Name: "server.events", Unit: "count", Better: "lower"},
	{Name: "client.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

// output collects one run's printed metrics, the subset that goes on
// the final JSON line, and the output checks.
type output struct {
	w         io.Writer
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
}

func newOutput(w io.Writer) *output {
	return &output{w: w, values: make(map[string]float64)}
}

// printf writes one human-readable line.
func (o *output) printf(format string, args ...any) {
	fmt.Fprintf(o.w, format+"\n", args...)
}

// metric prints a metric with its unit and a note (sample count,
// definition or paper reference), and records its value.
func (o *output) metric(name string, v float64, unit, note string) {
	o.values[name] = v
	o.printf("  %-36s %-14s %-10s %s", name, strconv.FormatFloat(v, 'g', 6, 64), unit, note)
}

// op records one attempted operation and, when it failed a check, why.
func (o *output) op(failures ...string) {
	o.attempted++
	if len(failures) > 0 {
		o.failed++
		o.failures = append(o.failures, failures...)
	}
}

func (o *output) correct() bool { return o.failed == 0 }

// metricValue is one entry of the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine renders the last stdout line: exactly the defs' metrics.
func (o *output) finalLine(defs []metricDef) (string, error) {
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.Name, v)
		}
		ms[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.correct(), o.attempted, o.failed, ms}
	data, err := json.Marshal(line)
	if err != nil {
		return "", fmt.Errorf("rendering result: %w", err)
	}
	return string(data), nil
}

// hostStamp describes where a run happened.
func hostStamp() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a plain source checkout has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// peakRSSMiB is the process's peak resident set size (getrusage's
// ru_maxrss, which Linux reports in KiB).
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the run did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
