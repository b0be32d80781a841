package codegen

import "fmt"

// CacheDump renders the register cache as "name=value" entries sorted by
// register name, so port-level tests can pin the cache contents.
func CacheDump(s *Stubs) []string {
	out := make([]string, len(s.regs))
	for i, r := range s.regs {
		out[i] = fmt.Sprintf("%s=%#x", r.name, s.cache[r.slot])
	}
	return out
}
