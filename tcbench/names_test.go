package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRx = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRx = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRx.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRx)
		}
		if !unitRx.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRx)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloadNames {
		if !nameRx.MatchString(w) {
			t.Errorf("workload name %q does not match %s", w, nameRx)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n%+v\n%+v", b.PerLayer, perLayer)
	}
	setup := false
	for _, d := range b.EndToEnd {
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
			for _, o := range b.EndToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", d.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s (unit s, better lower)")
	}
}

func TestFinalLine(t *testing.T) {
	defs := []metricDef{{Name: "a_s", Unit: "s", Better: "lower", Bound: 0.1}}
	o := newOutput(new(discard))
	if _, err := o.finalLine(defs); err == nil {
		t.Error("a missing metric must be an error")
	}
	o.metric("a_s", 1.5, "s", "")
	o.op()
	o.op("broken")
	line, err := o.finalLine(defs)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Attempted != 2 || got.Failed != 1 || got.Metrics["a_s"] != (metricValue{1.5, "s"}) {
		t.Errorf("final line %s", line)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
