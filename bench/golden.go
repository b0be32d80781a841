package main

import (
	"bytes"
	"compress/gzip"
	_ "embed"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
)

// goldenCSV holds every record of every benchmarked cell, booted on the
// interp reference oracle and the block backend and found identical.
// `go run ./bench -golden` regenerates it.
//
//go:embed testdata/golden.csv.gz
var goldenCSV []byte

const goldenPath = "bench/testdata/golden.csv.gz"

var goldenHeader = []string{"driver", "scenario", "stub", "mutant", "row", "site", "steps"}

// goldenKey is a record's identity in the golden set: the driver, the
// hardware scenario, the stub mode, and the mutant.
type goldenKey struct {
	Driver, Scenario, Stub string
	Mutant                 int
}

// goldenVal is what a boot must reproduce.
type goldenVal struct {
	Row   string
	Site  int
	Steps int64
}

type golden map[goldenKey]goldenVal

// goldenCell names one (driver, scenario, stub) cell.
type goldenCell struct{ Driver, Scenario, Stub string }

// cellsOf lists the cells a workload's specs boot.
func cellsOf(specs []campaign.Spec) map[goldenCell]bool {
	cells := make(map[goldenCell]bool)
	for _, s := range specs {
		scenarios := s.Normalized().Scenarios
		if len(scenarios) == 0 {
			scenarios = []string{""}
		}
		for _, d := range s.Drivers {
			for _, sc := range scenarios {
				cells[goldenCell{d, scenarioName(sc), stubName(s)}] = true
			}
		}
	}
	return cells
}

// loadGolden reads the golden records of the given cells (all of them
// when cells is nil) from gzipped CSV.
func loadGolden(data []byte, cells map[goldenCell]bool) (golden, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("golden records: %w", err)
	}
	r := csv.NewReader(zr)
	r.FieldsPerRecord = len(goldenHeader)
	r.ReuseRecord = true
	if _, err := r.Read(); err != nil {
		return nil, fmt.Errorf("golden records: header: %w", err)
	}
	g := make(golden)
	rows := make(map[string]string) // interned row labels
	for {
		f, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("golden records: %w", err)
		}
		cell := goldenCell{f[0], f[1], f[2]}
		if cells != nil && !cells[cell] {
			continue
		}
		mutant, err1 := strconv.Atoi(f[3])
		site, err2 := strconv.Atoi(f[5])
		steps, err3 := strconv.ParseInt(f[6], 10, 64)
		if err := errors.Join(err1, err2, err3); err != nil {
			return nil, fmt.Errorf("golden records: %v: %w", f, err)
		}
		row, ok := rows[f[4]]
		if !ok {
			row = f[4]
			rows[row] = row
		}
		g[goldenKey{cell.Driver, cell.Scenario, cell.Stub, mutant}] = goldenVal{row, site, steps}
	}
	return g, nil
}

// checkResult is how one campaign's records compare with the golden set.
type checkResult struct {
	Results int // result records in the store
	Wrong   int // records whose (row, site, steps) differ from, or are absent in, the golden set
	Panics  int // quarantined harness panics
}

// check compares the result records of one campaign run with stub mode
// stub against the golden set.
func (g golden) check(stub string, recs []campaign.Record) checkResult {
	var c checkResult
	for _, r := range recs {
		if r.Kind != campaign.KindResult {
			continue
		}
		c.Results++
		if r.HarnessPanic {
			c.Panics++
			continue
		}
		want, ok := g[goldenKey{r.Driver, scenarioName(r.Scenario), stub, r.Mutant}]
		if !ok || want != (goldenVal{r.Row, r.Site, r.Steps}) {
			c.Wrong++
		}
	}
	return c
}

// goldenSpecs are the cells the golden set covers: the full enumeration
// of every cell a workload boots, so any -seed's faults sample is
// covered (fault seeds derive from task identity, not from the sample).
var goldenSpecs = []campaign.Spec{
	{Name: "golden-pristine-debug", Drivers: allDrivers},
	{Name: "golden-pristine-production", Drivers: devilDrivers, StubMode: "production"},
	{Name: "golden-faults", Drivers: cDrivers, Scenarios: []string{"flaky-bus", "timing"}},
}

// generateGolden boots every golden cell on the interp oracle and on
// the block backend, fails unless the two agree record for record, and
// writes the records to path.
func generateGolden(path string, log io.Writer) error {
	all := make(golden)
	for _, spec := range goldenSpecs {
		var runs [2]golden
		for i, backend := range []string{"interp", "block"} {
			s := spec
			s.Backend = backend
			t0 := time.Now()
			store := campaign.NewMemStore()
			if _, err := campaign.Run(s, experiment.NewWorkload(), store,
				campaign.Options{Workers: runtime.NumCPU()}); err != nil {
				return fmt.Errorf("golden %s on %s: %w", spec.Name, backend, err)
			}
			runs[i] = make(golden)
			for _, r := range store.Records() {
				if r.Kind != campaign.KindResult {
					continue
				}
				if r.HarnessPanic {
					return fmt.Errorf("golden %s on %s: harness panic on %s: %s",
						spec.Name, backend, r.Key(), r.Panic)
				}
				runs[i][goldenKey{r.Driver, scenarioName(r.Scenario), stubName(spec), r.Mutant}] =
					goldenVal{r.Row, r.Site, r.Steps}
			}
			fmt.Fprintf(log, "golden %s on %s: %d records in %.1fs\n",
				spec.Name, backend, len(runs[i]), time.Since(t0).Seconds())
		}
		if err := sameRecords(runs[0], runs[1]); err != nil {
			return fmt.Errorf("golden %s: interp and block disagree: %w", spec.Name, err)
		}
		for k, v := range runs[0] {
			all[k] = v
		}
	}
	return writeGolden(path, all)
}

// sameRecords reports the first difference between two record sets.
func sameRecords(a, b golden) error {
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			return fmt.Errorf("%v: missing from the second run", k)
		}
		if va != vb {
			return fmt.Errorf("%v: %+v vs %+v", k, va, vb)
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d records vs %d", len(a), len(b))
	}
	return nil
}

func writeGolden(path string, g golden) error {
	keys := make([]goldenKey, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Driver != b.Driver {
			return a.Driver < b.Driver
		}
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Stub != b.Stub {
			return a.Stub < b.Stub
		}
		return a.Mutant < b.Mutant
	})
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		return err
	}
	w := csv.NewWriter(zw)
	w.Write(goldenHeader)
	for _, k := range keys {
		v := g[k]
		w.Write([]string{k.Driver, k.Scenario, k.Stub, strconv.Itoa(k.Mutant),
			v.Row, strconv.Itoa(v.Site), strconv.FormatInt(v.Steps, 10)})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return fmt.Errorf("golden records: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("golden records: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("golden records: %w", err)
	}
	return nil
}
