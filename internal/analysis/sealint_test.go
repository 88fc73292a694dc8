package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"seoracle/internal/analysis"
	"seoracle/internal/analysis/analysistest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestMapIter(t *testing.T) {
	analysistest.Run(t, analysis.MapIter, fixture("mapiter"))
}

func TestHotPath(t *testing.T) {
	analysistest.Run(t, analysis.HotPath, fixture("hotpath"))
}

func TestMarshalFirst(t *testing.T) {
	analysistest.Run(t, analysis.MarshalFirst, fixture("marshalfirst"))
}

func TestCtxWard(t *testing.T) {
	analysistest.Run(t, analysis.CtxWard, fixture("ctxward"))
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, analysis.AtomicField, fixture("atomicfield"))
}

// TestBareIgnoreDirective pins the suppression protocol: a //sealint:ignore
// without a reason is itself reported and suppresses nothing.
func TestBareIgnoreDirective(t *testing.T) {
	pkg, err := analysis.LoadDir(fixture("baddirective"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.RunIgnoringScope(pkg, analysis.MapIter)
	if err != nil {
		t.Fatalf("running: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 (the bare directive): %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "needs a reason") {
		t.Errorf("diagnostic %q does not explain the missing reason", diags[0].Message)
	}
}

// TestScopeRespected pins that scoped analyzers skip packages outside their
// layer when run through the normal driver: the marshalfirst fixture is full
// of violations, but its import path is not under internal/server.
func TestScopeRespected(t *testing.T) {
	pkg, err := analysis.LoadDir(fixture("marshalfirst"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.RunAnalyzers(pkg, []*analysis.Analyzer{analysis.MarshalFirst})
	if err != nil {
		t.Fatalf("running: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("scoped analyzer ran outside its scope: %v", diags)
	}
}

// TestAnnotatedFuncsListsHotPaths pins that the repo's annotated hot
// functions are discoverable — the escape gate is only as good as this set.
func TestAnnotatedFuncsListsHotPaths(t *testing.T) {
	fns, err := analysis.HotpathFuncs("seoracle/internal/core", "seoracle/internal/perfecthash", "seoracle/internal/server")
	if err != nil {
		t.Fatalf("listing hotpath functions: %v", err)
	}
	byName := make(map[string]bool, len(fns))
	for _, fn := range fns {
		byName[fn.Name] = true
		if fn.StartLine <= 0 || fn.EndLine < fn.StartLine {
			t.Errorf("%s: bad line range %d-%d", fn.Name, fn.StartLine, fn.EndLine)
		}
	}
	for _, want := range []string{
		"(*Oracle).Query",
		"(*Oracle).QueryBatch",
		"(*FlatOracle).Query",
		"(*FlatOracle).QueryNaive",
		"CompactBucketOf",
		"CompactSlotOf",
		"scanBatch",
		"scanMatrix",
		"appendQuery",
		"appendBatch",
		"appendMatrix",
		"appendPath",
		"appendFloat",
		"shortest",
		"toDecimal",
	} {
		if !byName[want] {
			t.Errorf("expected //sealint:hotpath on %s; annotated set: %v", want, names(fns))
		}
	}
}

func names(fns []analysis.AnnotatedFunc) []string {
	out := make([]string, len(fns))
	for i, fn := range fns {
		out[i] = fn.Name
	}
	return out
}
