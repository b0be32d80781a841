package devil

import "repro/internal/devil/codegen"

// Mode re-exports the stub generation mode.
type Mode = codegen.Mode

// Generation modes, re-exported for façade users.
const (
	Production = codegen.Production
	Debug      = codegen.Debug
)

// Config re-exports the stub generation configuration.
type Config = codegen.Config

// Stubs re-exports the generated stub set.
type Stubs = codegen.Stubs

// Value re-exports the typed Devil value.
type Value = codegen.Value

// AssertError re-exports the Devil run-time assertion failure.
type AssertError = codegen.AssertError

// Generate builds executable stubs for this specification bound to a
// concrete bus and base-address assignment.
func (s *Spec) Generate(cfg Config) (*Stubs, error) {
	return codegen.Generate(s.Filename, s.Info, cfg)
}

// EmitC renders the C stub text the compiler generates for this
// specification (the paper's Figure 4 form).
func (s *Spec) EmitC(mode Mode) string {
	return codegen.EmitC(s.Filename, s.Info, mode)
}

// EmitCVariable renders the C stubs of a single device variable.
func (s *Spec) EmitCVariable(mode Mode, varName string) (string, error) {
	return codegen.EmitCVariable(s.Filename, s.Info, mode, varName)
}
