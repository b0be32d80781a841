package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// compareDirs compares two sets of reports, A the base and B the
// candidate, each a directory tree of report.json files from untraced
// runs. For every (workload, end-to-end metric) pair it prints
//
//   - ok when B's median is no worse than A's by more than the bound, or
//     when every B run reads better than every A run;
//   - worse when B's median is worse by more than the bound;
//   - unresolved when either side's spread (interquartile range over
//     median) is wider than the bound, so the medians cannot decide.
//
// A workload with an incorrect B run is worse on "correct". It returns
// true when every pair is ok.
func compareDirs(a, b string, w io.Writer) (bool, error) {
	ra, err := loadReports(a)
	if err != nil {
		return false, err
	}
	rb, err := loadReports(b)
	if err != nil {
		return false, err
	}
	allOK := true
	compared := 0
	for _, wl := range workloads {
		as, bs := ra[wl.name], rb[wl.name]
		if len(as) == 0 || len(bs) == 0 {
			continue
		}
		compared++
		for _, r := range bs {
			if !r.Correct {
				fmt.Fprintf(w, "%s correct: %d of %d boots failed: worse\n", wl.name, r.Failed, r.Attempted)
				allOK = false
				break
			}
		}
		for _, d := range endToEnd {
			va, vb := values(as, d.name), values(bs, d.name)
			v := judge(d, va, vb)
			fmt.Fprintf(w, "%s %s: %s median %.6g -> %.6g %s (%+.1f%%), spread %.1f%% / %.1f%%, bound %.0f%%, runs %d / %d\n",
				wl.name, d.name, v.status, v.medA, v.medB, d.unit, 100*v.change,
				100*v.spreadA, 100*v.spreadB, 100*d.bound, len(va), len(vb))
			if v.status != "ok" {
				allOK = false
			}
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("no workload has reports in both %s and %s", a, b)
	}
	return allOK, nil
}

// verdict is one (workload, metric) comparison.
type verdict struct {
	status           string
	medA, medB       float64
	change           float64 // (medB - medA) / medA
	spreadA, spreadB float64
}

func judge(d metricDef, va, vb []float64) verdict {
	v := verdict{medA: median(va), medB: median(vb)}
	v.change = ratio(v.medB-v.medA, v.medA)
	v.spreadA, v.spreadB = spread(va), spread(vb)
	worsening := v.change
	if d.better == "higher" {
		worsening = -worsening
	}
	switch {
	case allBetter(d, va, vb):
		v.status = "ok"
	case v.spreadA > d.bound || v.spreadB > d.bound:
		v.status = "unresolved"
	case worsening > d.bound:
		v.status = "worse"
	default:
		v.status = "ok"
	}
	return v
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

// allBetter reports whether every value of vb is better than every value
// of va.
func allBetter(d metricDef, va, vb []float64) bool {
	for _, a := range va {
		for _, b := range vb {
			if (d.better == "higher" && b <= a) || (d.better == "lower" && b >= a) {
				return false
			}
		}
	}
	return true
}

func values(rs []report, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// loadReports reads every report.json under dir, by workload.
func loadReports(dir string) (map[string][]report, error) {
	out := make(map[string][]report)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || e.Name() != "report.json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
		return nil
	})
	return out, err
}
