package experiment_test

import (
	"fmt"
	"log"

	"repro/internal/drivers"
	"repro/internal/experiment"
)

// ExampleBootDriver compiles the unmutated C IDE driver and boots it on
// a freshly assembled simulated PC: the kernel initialises the driver,
// mounts and checks the filesystem through it, and classifies the run.
func ExampleBootDriver() {
	src, err := drivers.Load("ide_c")
	if err != nil {
		log.Fatal(err)
	}
	toks, err := experiment.ParseDriver(src.Text)
	if err != nil {
		log.Fatal(err)
	}
	res, err := experiment.BootDriver("ide_c", experiment.BootInput{Tokens: toks, Devil: src.Devil})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("outcome:", res.Outcome)
	fmt.Println(res.Console[len(res.Console)-1])
	// Output:
	// outcome: Boot
	// boot: reached userspace
}
