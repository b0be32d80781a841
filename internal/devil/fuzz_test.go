package devil_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/devil"
	"repro/internal/hw"
)

// diagnostics renders a compilation result: every diagnostic of a failed
// compilation, or "ok".
func diagnostics(err error) string {
	var ce *devil.CompileError
	if errors.As(err, &ce) {
		return fmt.Sprint(ce.All())
	}
	if err != nil {
		return err.Error()
	}
	return "ok"
}

// FuzzDevilCompile takes arbitrary specification text through the whole
// compiler. Compiling must never panic and must be deterministic; a spec
// that checks clean must generate stubs in both modes whose every public
// variable can be set and read on a floating bus without panicking. The
// seed corpus (testdata/fuzz/FuzzDevilCompile) holds the five embedded
// specifications and the codegen test specification.
func FuzzDevilCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := devil.Compile("fuzz.dil", src)
		_, again := devil.Compile("fuzz.dil", src)
		if a, b := diagnostics(err), diagnostics(again); a != b {
			t.Fatalf("diagnostics differ between two compilations:\n%s\n%s", a, b)
		}
		if err != nil {
			return
		}
		for _, mode := range []devil.Mode{devil.Debug, devil.Production} {
			bus := hw.NewBus()
			bus.SetFloating(true)
			bases := make(map[string]hw.Port)
			for i, p := range spec.Info.Device.Params {
				bases[p.Name] = hw.Port(0x1000 * (i + 1))
			}
			stubs, err := spec.Generate(devil.Config{Bus: bus, Bases: bases, Mode: mode})
			if err != nil {
				continue
			}
			for _, sig := range stubs.Interface().Vars {
				if sig.Writable {
					_ = stubs.Set(sig.Name, devil.Value{Val: 1, Raw: 1})
					for _, c := range sig.Consts {
						cv, _ := stubs.Const(c)
						_ = stubs.Set(sig.Name, cv)
					}
				}
				if sig.Readable {
					_, _ = stubs.Get(sig.Name)
				}
			}
		}
	})
}
