package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"htapxplain/internal/exec"
	"htapxplain/internal/plan"
	"htapxplain/internal/value"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
}

func TestQuantileCountsFailuresAsInf(t *testing.T) {
	// 1000 samples: 995 finite, 5 failed. p99 needs the 990th value,
	// still finite; with 20 failures it lands on a failure.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 995; i < 1000; i++ {
		xs[i] = math.Inf(1)
	}
	if got := quantile(xs, 0.99); got != 1 {
		t.Errorf("p99 with 5 failures in 1000 = %v, want 1", got)
	}
	for i := 980; i < 1000; i++ {
		xs[i] = math.Inf(1)
	}
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 20 failures in 1000 = %v, want +Inf", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50}, // overlaps a: 10..50 counted once
		{Name: "c", Parent: 0, Start: 60, End: 70},
		{Name: "d", Parent: 0, Start: 90, End: 120}, // only 90..100 lies inside root
		{Name: "grandchild", Parent: 1, Start: 12, End: 18},
	}
	want := []int64{100 - 40 - 10 - 10, 20 - 6, 30, 10, 30, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestOperatorSelfTimes(t *testing.T) {
	prof := &exec.OpStats{Name: "Aggregate", TimeUS: 300, Children: []*exec.OpStats{
		{Name: "Inner hash join", TimeUS: 250, Children: []*exec.OpStats{
			{Name: "Column Scan on orders", TimeUS: 50},
			{Name: "Column Scan on customer", TimeUS: 30},
		}},
	}}
	acc := map[string]float64{}
	opSelfUS(prof, acc)
	want := map[string]float64{"agg": 50, "hashjoin": 170, "scan": 80}
	for k, v := range want {
		if acc[k] != v {
			t.Errorf("%s self time = %v, want %v (all: %v)", k, acc[k], v, acc)
		}
	}
}

func TestDigest(t *testing.T) {
	row := func(vs ...value.Value) value.Row { return value.Row(vs) }
	a := row(value.Value{K: value.KindInt, I: 1}, value.Value{K: value.KindString, S: "x"})
	b := row(value.Value{K: value.KindFloat, F: 2.00001}, value.Value{K: value.KindFloat, F: -0.0})
	b2 := row(value.Value{K: value.KindFloat, F: 2.00002}, value.Value{K: value.KindFloat, F: 0})
	ab, ba := digestRows([]value.Row{a, b}), digestRows([]value.Row{b2, a})
	if ab.set != ba.set || ab.n != ba.n {
		t.Error("set digest depends on row order or on float noise below 1e-4")
	}
	if ab.seq == ba.seq {
		t.Error("sequence digest ignores row order")
	}
	ref := readRef{ordered: true, tp: ab, ap: ab}
	if !ref.matches(plan.TP, ab) || ref.matches(plan.AP, ba) {
		t.Error("ordered reference must match only the same sequence")
	}
	str := row(value.Value{K: value.KindString, S: "1"})
	num := row(value.Value{K: value.KindInt, I: 1})
	if digestRows([]value.Row{str}).set == digestRows([]value.Row{num}).set {
		t.Error("digest confuses the string '1' with the integer 1")
	}
}

func TestCrossesMarksTheShare(t *testing.T) {
	var marked, lastOrdinal int64
	for i := int64(0); i < 1000; i++ {
		ord, ok := crosses(i, 0.3)
		if ord != marked {
			t.Fatalf("position %d: ordinal %d, want %d marked before it", i, ord, marked)
		}
		if ok {
			marked++
			lastOrdinal = ord
		}
	}
	if marked != 300 || lastOrdinal != 299 {
		t.Errorf("marked %d of 1000 at 0.3 (last ordinal %d), want 300", marked, lastOrdinal)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and this program's metric
// and workload tables the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadDefs[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

// TestREADMEMapping keeps the README's per-layer table equal to the
// program's: each metric with the end-to-end metric and workload it
// should move.
func TestREADMEMapping(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		row := fmt.Sprintf("| `%s` | %s | %s | `%s` | %s |", d.name, d.unit, d.better, d.moves, d.on)
		if !strings.Contains(string(data), row) {
			t.Errorf("README.md lacks the row %s", row)
		}
	}
}
