package experiment

import (
	"strings"
	"testing"

	"repro/internal/drivers"
	"repro/internal/kernel"
)

// bootDriver runs the unmutated driver and returns the result.
func bootDriver(t *testing.T, name string) *BootResult {
	t.Helper()
	src, err := drivers.Load(name)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	toks, err := ParseDriver(src.Text)
	if err != nil {
		t.Fatalf("lex %s: %v", name, err)
	}
	res, err := BootDriver(name, BootInput{Tokens: toks, Devil: src.Devil})
	if err != nil {
		t.Fatalf("boot %s: %v", name, err)
	}
	return res
}

// TestCleanBoot is the baseline of the whole evaluation: both the C driver
// and the Devil driver must compile cleanly and boot with no damage.
func TestCleanBoot(t *testing.T) {
	for _, name := range []string{"ide_c", "ide_devil"} {
		t.Run(name, func(t *testing.T) {
			res := bootDriver(t, name)
			if res.CompileDetected() {
				for _, e := range res.CompileErrors {
					t.Errorf("  compile: %v", e)
				}
				t.Fatalf("%s: clean driver failed to compile", name)
			}
			if res.Outcome != kernel.OutcomeBoot {
				t.Errorf("outcome = %v, want Boot; run error: %v", res.Outcome, res.RunErr)
				for _, line := range res.Console {
					t.Logf("console: %s", line)
				}
			}
			if res.Report == nil || !res.Report.Mounted {
				t.Error("filesystem did not mount")
			}
			if res.Report != nil && res.Report.FilesBad != 0 {
				t.Errorf("%d files failed their checksums: %v",
					res.Report.FilesBad, res.Report.Problems)
			}
			if len(res.DamagedSectors) != 0 {
				t.Errorf("disk audit found damaged sectors: %v", res.DamagedSectors)
			}
			foundUserspace := false
			for _, line := range res.Console {
				if strings.Contains(line, "reached userspace") {
					foundUserspace = true
				}
			}
			if !foundUserspace {
				t.Error("boot did not reach userspace")
			}
			t.Logf("%s: clean boot in %d steps, console %d lines", name, res.Steps, len(res.Console))
		})
	}
}
