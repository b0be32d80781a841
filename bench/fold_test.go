package main

import (
	"strings"
	"testing"
	"time"
)

const cannedTraces = `File: bench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      30ms   internal/runtime/maps.(*Map).getWithoutKeySmallFastStr
             runtime.mapaccess2_faststr
             repro/internal/devil/codegen.(*Stubs).getVar
             repro/internal/devil/codegen.(*Accessor).Get (inline)
             repro/internal/cdriver/ccompile.(*compiler).blockCall.func1
             repro/internal/experiment.(*worker).Boot
-----------+-------------------------------------------------------
      20ms   runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   time.now
             time.Now
             main.(*timedWorker).Boot
             repro/internal/campaign.Run.func3
-----------+-------------------------------------------------------
      25ms   slices.SortFunc[go.shape.[]repro/internal/campaign.Record,go.shape.struct]
             repro/internal/cdriver/cparser.ParseTokens
-----------+-------------------------------------------------------
      15ms   repro/internal/hw.(*Bus).Read
             repro/internal/cdriver/ccompile.(*compiler).inb.func2
-----------+-------------------------------------------------------
`

func TestFoldChargesInnermostRepoFrame(t *testing.T) {
	got, err := foldTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"devil":    30 * time.Millisecond, // map hashing charged to the stub that asked
		"runtime":  20 * time.Millisecond, // no repository frame at all
		"bench":    10 * time.Millisecond,
		"frontend": 25 * time.Millisecond, // type arguments do not name the caller
		"hw":       15 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("%s = %v, want %v", l, got[l], d)
		}
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, err := foldTraces(strings.NewReader("-----------+---\n      abc   main.main\n")); err == nil {
		t.Error("want an error for an unparseable sample value")
	}
}
