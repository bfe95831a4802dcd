package obsflags

import (
	"flag"
	"io"
	"testing"

	"sudc/internal/obs"
)

func start(t *testing.T, args ...string) *Session {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s, err := f.Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNoFlagLeavesObservabilityOff(t *testing.T) {
	s := start(t)
	defer s.Close()
	if s.Registry() != nil || s.Recorder() != nil || obs.Global() != nil {
		t.Error("with no flag set, the session must create nothing and install no hook")
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseRemovesProcessHooks(t *testing.T) {
	s := start(t, "-metrics")
	if s.Registry() == nil || obs.Global() != s.Registry() {
		t.Fatal("-metrics must install the session's registry as the process-wide one")
	}
	s.Close()
	if obs.Global() != nil {
		t.Error("Close must remove the process-wide registry")
	}
}
