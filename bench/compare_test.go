package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{"boots_per_s", "boots/s", "higher", 0.10}
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{98, 99, 100, 97, 99}, "ok"},
		{[]float64{85, 86, 84, 85, 86}, "worse"},
		{[]float64{60, 100, 140, 80, 120}, "unresolved"},
		{[]float64{130, 150, 140, 190, 110}, "ok"}, // noisy, but every run is better
	} {
		if got := judge(rate, base, c.b).status; got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}

func TestCompareDirs(t *testing.T) {
	write := func(dir string, i int, rate float64) {
		r := report{Workload: "short"}
		r.Correct = true
		r.Metrics = map[string]metricValue{}
		for _, d := range endToEnd {
			r.Metrics[d.name] = metricValue{1, d.unit}
		}
		r.Metrics["boots_per_s"] = metricValue{rate, "boots/s"}
		data, _ := json.Marshal(r)
		sub := filepath.Join(dir, "run", string(rune('a'+i)))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "report.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b := t.TempDir(), t.TempDir()
	for i, v := range []float64{100, 101, 99} {
		write(a, i, v)
		write(b, i, v*0.6)
	}
	var out strings.Builder
	ok, err := compareDirs(a, b, &out)
	if err != nil {
		t.Fatal(err)
	}
	if ok || !strings.Contains(out.String(), "short boots_per_s: worse") ||
		!strings.Contains(out.String(), "short setup_s: ok") {
		t.Errorf("ok=%v\n%s", ok, out.String())
	}
}
