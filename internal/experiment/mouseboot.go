package experiment

import (
	"fmt"

	"repro/internal/cdriver/cinterp"
	"repro/internal/hw"
	"repro/internal/hw/busmouse"
)

// The busmouse experiment extends the paper's evaluation to a second
// driver pair — §4.2 notes the authors were "currently evaluating the
// robustness of Devil over several other Linux drivers". The boot here is
// the mouse's: probe via the signature register, configure, then sample a
// fixed motion script; an event stream that differs from the script is
// visible damage (a wild cursor).

const mouseBase hw.Port = 0x23c

// motionScript is the deterministic input the simulated user provides.
var motionScript = []struct {
	dx, dy  int
	buttons uint8
}{
	{1, 0, 0}, {3, -2, 0}, {-4, 5, 1}, {0, 0, 5},
	{2, 2, 4}, {-1, -3, 0}, {5, 1, 2}, {-2, 4, 0},
}

var mouseWorkload = WorkloadDesc{
	Name:    "busmouse",
	Drivers: []string{"busmouse_c", "busmouse_devil"},
	Spec:    "busmouse",
	Bases:   map[string]hw.Port{"base": mouseBase},
	Build: func(r *Rig) (any, error) {
		mouse := busmouse.New()
		if err := r.Bus.Map(mouseBase, 4, mouse); err != nil {
			return nil, err
		}
		return mouse, nil
	},
	Reset: func(dev any) { dev.(*busmouse.Mouse).Reset() },
	Run:   runMouseBoot,
}

// runMouseBoot initialises the driver, feeds the motion script and checks
// the event stream. The mouse counters accumulate, so the harness compares
// cumulative positions.
func runMouseBoot(r *Rig, ex Engine, res *BootResult) (error, bool) {
	kern, mouse := r.Kern, r.Dev.(*busmouse.Mouse)
	ret, err := ex.Call("mouse_init")
	if err != nil {
		return err, false
	}
	if ret.Kind == cinterp.ValInt && ret.I != 0 {
		return kern.Panic("busmouse: initialisation failed"), false
	}
	if !mouse.InterruptsEnabled() {
		kern.Printk("busmouse: warning: interrupts left disabled")
	}
	damaged := false
	var totalX, totalY int8
	for i, ev := range motionScript {
		mouse.Move(ev.dx, ev.dy)
		mouse.SetButtons(ev.buttons)
		totalX += int8(ev.dx)
		totalY += int8(ev.dy)
		v, err := ex.Call("mouse_poll")
		if err != nil {
			return err, false
		}
		gotDx := int8(v.I)
		gotDy := int8(v.I >> 8)
		gotButtons := uint8(v.I>>16) & 0x07
		if gotDx != totalX || gotDy != totalY || gotButtons != ev.buttons {
			kern.Printk(fmt.Sprintf(
				"busmouse: event %d corrupt: got (%d,%d,%d), expected (%d,%d,%d)",
				i, gotDx, gotDy, gotButtons, totalX, totalY, ev.buttons))
			damaged = true
		}
	}
	kern.Printk("busmouse: event stream complete")
	return nil, damaged
}

// MouseMutation runs the driver-mutation experiment for a busmouse driver
// ("busmouse_c" or "busmouse_devil"). It is DriverMutation under a
// historical name: the workload registry routes busmouse_* tasks to the
// mouse rig by driver name.
func MouseMutation(driver string, opts MutationOptions) (*DriverTable, error) {
	return DriverMutation(driver, opts)
}
