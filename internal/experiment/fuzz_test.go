package experiment

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/cdriver/ctoken"
	"repro/internal/drivers"
)

// FuzzBackendsAgree boots corpus drivers carrying 2–4 simultaneous cmut
// replacements, program shapes the single-token campaign never boots, on
// an interp and a block campaign worker (both over a full compile of the
// token stream) and requires every observable diffOne compares to agree.
// The first replacement's mutant stands in for the site diffOne
// classifies the Table 3/4 row by. The low seven bits of extra pick the number of
// replacements, and its high bit a Devil driver's stub mode (production
// when set). Seeds are under testdata/fuzz/FuzzBackendsAgree; run it
// with `go test -run '^$' -fuzz FuzzBackendsAgree ./internal/experiment`.
func FuzzBackendsAgree(f *testing.F) {
	names := drivers.Names()
	wl := NewWorkload().(*workload)
	// One interp and one block worker per stub mode: debug, production.
	var ref, blk [2]*worker
	for i, stub := range []string{"debug", "production"} {
		ref[i] = newWorker(f, wl, campaign.Spec{Backend: string(BackendInterp), StubMode: stub})
		blk[i] = newWorker(f, wl, campaign.Spec{StubMode: stub})
	}
	f.Fuzz(func(t *testing.T, driver uint8, a, b, c, d uint32, extra uint8) {
		name := names[int(driver)%len(names)]
		p, err := wl.plan(name)
		if err != nil {
			t.Fatal(err)
		}
		toks := append([]ctoken.Token(nil), p.res.Tokens...)
		first, replaced := -1, make(map[int]bool)
		mode := int(extra >> 7)
		for _, x := range []uint32{a, b, c, d}[:2+int((extra&0x7f)%3)] {
			m := p.res.Mutants[int(x%uint32(len(p.res.Mutants)))]
			if replaced[m.TokenIndex] {
				continue
			}
			replaced[m.TokenIndex] = true
			toks[m.TokenIndex] = m.Replacement
			if first < 0 {
				first = m.ID
			}
		}
		// The first mutant's task supplies the input the tokens replace.
		task := campaign.Task{Driver: name, Mutant: first}
		rb := bootFull(t, ref[mode], task, toks)
		// The reference result aliases pooled buffers the next boot on
		// its rig overwrites.
		rb.Console = append([]string(nil), rb.Console...)
		if rb.Coverage != nil {
			rb.Coverage = rb.Coverage.Clone()
		}
		diffOne(t, name, p, first, rb, bootFull(t, blk[mode], task, toks))
	})
}
