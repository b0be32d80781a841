package campaign

import (
	"fmt"
	"sort"
	"strings"
)

// TableData is the per-cell aggregate a record stream reduces to: the
// exact inputs of the paper's Table 3/4 rendering, one per (driver,
// scenario) matrix cell. Aggregation is order-independent and
// duplicate-tolerant (first result per mutant wins), so serial, sharded
// and merged stores of the same spec reduce to identical tables.
type TableData struct {
	Driver string
	// Scenario is the hardware scenario the cell ran under ("" for the
	// pristine cell, whose map key stays the bare driver name).
	Scenario string
	// Counts maps a row label to its mutant count.
	Counts map[string]int
	// SiteSets maps a row label to the contributing site set.
	SiteSets map[string]map[int]bool
	// TotalSites, Enumerated, Selected mirror the driver's meta record.
	TotalSites int
	Enumerated int
	Selected   int
	// Results is the number of distinct result records aggregated; a
	// complete campaign has Results == Selected.
	Results int
	// Losses counts partition-table destructions.
	Losses int
}

// Complete reports whether every selected mutant has a stored result.
func (d *TableData) Complete() bool { return d.Results == d.Selected }

// Pct returns a row's share of the selected mutants. The denominator is
// the selected population, so a partial store renders with its gaps
// visible rather than silently rescaled.
func (d *TableData) Pct(row string) float64 {
	if d.Selected == 0 {
		return 0
	}
	return 100 * float64(d.Counts[row]) / float64(d.Selected)
}

// Sites returns the number of distinct sites contributing to a row.
func (d *TableData) Sites(row string) int { return len(d.SiteSets[row]) }

// Label names the cell: the driver, or driver@scenario off the
// pristine cell — the key the cell carries in Aggregate's map.
func (d *TableData) Label() string { return CellLabel(d.Driver, d.Scenario) }

// Aggregate reduces a record stream to per-cell table data, keyed by
// cell label (the bare driver name for pristine cells, so pre-matrix
// stores and one-cell campaigns aggregate under the keys they always
// had), returning the cells in first-appearance order alongside the map.
func Aggregate(records []Record) (map[string]*TableData, []string, error) {
	tables := make(map[string]*TableData)
	var order []string
	get := func(driver, scenario string) *TableData {
		label := CellLabel(driver, scenario)
		t, ok := tables[label]
		if !ok {
			t = &TableData{
				Driver:   driver,
				Scenario: scenario,
				Counts:   make(map[string]int),
				SiteSets: make(map[string]map[int]bool),
			}
			tables[label] = t
			order = append(order, label)
		}
		return t
	}
	seen := make(map[string]bool)
	for _, r := range records {
		switch r.Kind {
		case KindMeta:
			t := get(r.Driver, r.Scenario)
			if t.Selected == 0 { // first meta wins
				t.TotalSites = r.Sites
				t.Enumerated = r.Enumerated
				t.Selected = r.Selected
			}
		case KindResult:
			if r.Row == "" {
				return nil, nil, fmt.Errorf("campaign: result record for %s has no row",
					r.Key())
			}
			key := r.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			t := get(r.Driver, r.Scenario)
			t.Counts[r.Row]++
			if t.SiteSets[r.Row] == nil {
				t.SiteSets[r.Row] = make(map[int]bool)
			}
			t.SiteSets[r.Row][r.Site] = true
			if r.Lost {
				t.Losses++
			}
			t.Results++
		}
	}
	return tables, order, nil
}

// scenarioCells names a spec's matrix cells for merge diagnostics: the
// scenario list, with the pristine cell spelled out.
func scenarioCells(s *Spec) string {
	if s == nil || len(s.Scenarios) == 0 {
		return "pristine only"
	}
	names := make([]string, len(s.Scenarios))
	for i, sc := range s.Scenarios {
		if sc == "" {
			sc = "pristine"
		}
		names[i] = sc
	}
	return strings.Join(names, ", ")
}

// fingerprintMismatch builds the error for two stores whose spec
// fingerprints differ. When the specs differ only in their scenario
// matrix — the same work-list crossed with different cells — the error
// names the mismatched cells instead of leaving the user to diff hashes:
// such stores are separate matrices, not shards of one, and must not be
// merged (their per-cell fault seeds differ).
func fingerprintMismatch(i int, got Record, wantFP string, wantSpec *Spec) error {
	if got.Spec != nil && wantSpec != nil {
		a, b := *got.Spec, *wantSpec
		a.Scenarios, b.Scenarios = nil, nil
		if a.Fingerprint() == b.Fingerprint() {
			return fmt.Errorf("campaign merge: source %d runs scenario cells [%s] but the destination runs [%s]; "+
				"stores from different scenario matrices cannot be merged",
				i+1, scenarioCells(got.Spec), scenarioCells(wantSpec))
		}
	}
	return fmt.Errorf("campaign merge: source %d has fingerprint %s, want %s",
		i+1, got.Fingerprint, wantFP)
}

// Merge folds the records of every source store into dst, validating
// that all stores carry the same spec fingerprint and deduplicating meta
// and result records per matrix cell. Results already present in dst are
// kept.
func Merge(dst Store, sources ...Store) error {
	want := ""
	var wantSpec *Spec
	haveMeta := make(map[string]bool)
	seen := make(map[string]bool)
	for _, r := range dst.Records() {
		switch r.Kind {
		case KindSpec:
			want = r.Fingerprint
			wantSpec = r.Spec
		case KindMeta:
			haveMeta[CellLabel(r.Driver, r.Scenario)] = true
		case KindResult:
			seen[r.Key()] = true
		}
	}
	for i, src := range sources {
		for _, r := range src.Records() {
			switch r.Kind {
			case KindSpec:
				if want == "" {
					want = r.Fingerprint
					wantSpec = r.Spec
					if err := dst.Append(r); err != nil {
						return err
					}
				} else if r.Fingerprint != want {
					return fingerprintMismatch(i, r, want, wantSpec)
				}
			case KindMeta:
				label := CellLabel(r.Driver, r.Scenario)
				if !haveMeta[label] {
					haveMeta[label] = true
					if err := dst.Append(r); err != nil {
						return err
					}
				}
			case KindResult:
				key := r.Key()
				if seen[key] {
					continue
				}
				seen[key] = true
				if err := dst.Append(r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Completion summarises a store's progress per matrix cell, sorted by
// cell label: how many of the selected mutants have results.
func Completion(records []Record) []string {
	tables, order, err := Aggregate(records)
	if err != nil {
		return []string{fmt.Sprintf("unaggregatable store: %v", err)}
	}
	sort.Strings(order)
	var out []string
	for _, label := range order {
		t := tables[label]
		out = append(out, fmt.Sprintf("%s: %d/%d booted", label, t.Results, t.Selected))
	}
	return out
}
