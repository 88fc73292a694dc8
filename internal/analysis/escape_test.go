package analysis_test

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"seoracle/internal/analysis"
)

// TestEscapeCheckJoinsAnnotations feeds EscapeCheck a synthetic compiler
// report and checks the join against real //sealint:hotpath ranges: escapes
// inside an annotated function are violations, chatter and out-of-range
// escapes are not.
func TestEscapeCheckJoinsAnnotations(t *testing.T) {
	funcs, err := analysis.HotpathFuncs("seoracle/internal/perfecthash")
	if err != nil {
		t.Fatalf("listing hotpath functions: %v", err)
	}
	var idx analysis.AnnotatedFunc
	for _, fn := range funcs {
		if fn.Name == "CompactSlotOf" {
			idx = fn
		}
	}
	if idx.File == "" {
		t.Fatal("CompactSlotOf is not annotated //sealint:hotpath")
	}
	in := strings.Join([]string{
		// A real escape inside the annotated range: must be reported.
		fmt.Sprintf("%s:%d:2: key escapes to heap", idx.File, idx.StartLine+1),
		// Compiler chatter that must not count.
		fmt.Sprintf("%s:%d:3: t does not escape", idx.File, idx.StartLine+1),
		fmt.Sprintf("%s:%d:9: inlining call to hash", idx.File, idx.StartLine),
		// An escape outside every annotated range: must not be reported.
		fmt.Sprintf("%s:1:1: init escapes to heap", idx.File),
		// An escape in a file with no annotations at all.
		"some/other/file.go:3:1: y escapes to heap",
	}, "\n")
	viol, listed, err := analysis.EscapeCheck(strings.NewReader(in), "seoracle/internal/perfecthash")
	if err != nil {
		t.Fatalf("EscapeCheck: %v", err)
	}
	if len(listed) == 0 {
		t.Fatal("EscapeCheck saw zero annotated functions")
	}
	if len(viol) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(viol), viol)
	}
	if viol[0].Func != "CompactSlotOf" || viol[0].Line != idx.StartLine+1 {
		t.Errorf("violation joined to %s line %d, want CompactSlotOf line %d",
			viol[0].Func, viol[0].Line, idx.StartLine+1)
	}
}

// TestEscapeGateScript runs scripts/escape_gate.sh end to end: it must pass
// on a real annotated package and fail on the build-tagged seeded
// regression (a //sealint:hotpath function with a deliberate escape). This
// is the gate's own regression test — if the join ever breaks in the
// direction of "never fires", the fixture run below turns green and fails
// the assertion.
func TestEscapeGateScript(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles packages; skipped in -short mode")
	}
	clean := exec.Command("sh", "../../scripts/escape_gate.sh", "./internal/perfecthash")
	if out, err := clean.CombinedOutput(); err != nil {
		t.Fatalf("escape gate failed on a clean annotated package:\n%s\nerror: %v", out, err)
	}

	seeded := exec.Command("sh", "../../scripts/escape_gate.sh", "./internal/analysis/testdata/escapegate")
	seeded.Env = append(os.Environ(), "GOFLAGS=-tags=escapegate_fixture")
	out, err := seeded.CombinedOutput()
	if err == nil {
		t.Fatalf("escape gate passed on the seeded regression; it should have flagged Leak:\n%s", out)
	}
	if !strings.Contains(string(out), "Leak") {
		t.Errorf("gate failure output does not mention the violating function Leak:\n%s", out)
	}
}
