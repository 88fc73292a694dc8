// hotpath.go — the allocation analyzer. The 70 ns / 0-alloc query path is
// the repo's headline number, today guarded at runtime by
// testing.AllocsPerRun regression tests. hotpath is the static half:
// functions annotated `//sealint:hotpath` (Query, QueryBatch, the
// FlatOracle probe path, the compact perfect-hash probe) may not contain
// allocating constructs at all, so an alloc can't even reach the runtime
// guard. The dynamic complement — compiler-proved escapes — is
// scripts/escape_gate.sh, which joins `go build -gcflags=-m` output
// against the same annotations (see EscapeCheck).

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPath rejects allocating constructs inside functions annotated
// //sealint:hotpath: make/new, map/slice/&composite literals, append,
// closures, string concatenation and string<->[]byte conversions, fmt
// calls, explicit interface conversions, and arguments boxed into
// interface parameters. Error paths that allocate by design carry a
// //sealint:ignore with the reason.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "rejects allocating constructs (make/new, literals, append, closures, " +
		"string concat, fmt calls, interface boxing) in //sealint:hotpath " +
		"functions — the static complement of the AllocsPerRun guards",
	Run: runHotPath,
}

// An AnnotatedFunc is one //sealint:hotpath function: its name and source
// span, as the escape gate consumes them.
type AnnotatedFunc struct {
	// Name is the function or method name ("(*Oracle).Query" style for
	// methods).
	Name string
	// File is the source file as recorded in the FileSet.
	File string
	// StartLine and EndLine delimit the function declaration inclusive.
	StartLine, EndLine int
	// Decl is the underlying declaration.
	Decl *ast.FuncDecl
}

// AnnotatedFuncs returns every //sealint:hotpath function in files. It
// needs only parsed syntax, so escape-gate tooling can run it without a
// type-checked load.
func AnnotatedFuncs(fset *token.FileSet, files []*ast.File) []AnnotatedFunc {
	var out []AnnotatedFunc
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			annotated := false
			for _, c := range fn.Doc.List {
				if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
					annotated = true
					break
				}
			}
			if !annotated {
				continue
			}
			start := fset.Position(fn.Pos())
			end := fset.Position(fn.End())
			out = append(out, AnnotatedFunc{
				Name:      funcDisplayName(fn),
				File:      start.Filename,
				StartLine: start.Line,
				EndLine:   end.Line,
				Decl:      fn,
			})
		}
	}
	return out
}

// funcDisplayName renders "Func" or "(*Recv).Method".
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	recv := types.ExprString(t)
	if strings.HasPrefix(recv, "*") {
		return "(" + recv + ")." + fn.Name.Name
	}
	return recv + "." + fn.Name.Name
}

func runHotPath(pass *Pass) error {
	for _, fn := range AnnotatedFuncs(pass.Fset, pass.Files) {
		if fn.Decl.Body == nil {
			continue
		}
		checkHotBody(pass, fn.Decl)
	}
	return nil
}

// checkHotBody walks one annotated body and reports each allocating
// construct.
func checkHotBody(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "closure in hotpath function %s allocates (captured variables escape)", fn.Name.Name)
			return false // the closure body is the closure's problem
		case *ast.CompositeLit:
			t := info.Types[x].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				pass.Reportf(x.Pos(), "map literal allocates in hotpath function %s", fn.Name.Name)
			case *types.Slice:
				pass.Reportf(x.Pos(), "slice literal allocates in hotpath function %s", fn.Name.Name)
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					pass.Reportf(x.Pos(), "&composite literal allocates in hotpath function %s", fn.Name.Name)
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if t := info.Types[x].Type; t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(x.Pos(), "string concatenation allocates in hotpath function %s", fn.Name.Name)
					}
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, fn, x)
		}
		return true
	})
}

// checkHotCall classifies one call inside a hotpath body.
func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.Info
	name := fn.Name.Name
	switch {
	case isBuiltin(info, call, "make"):
		pass.Reportf(call.Pos(), "make allocates in hotpath function %s", name)
		return
	case isBuiltin(info, call, "new"):
		pass.Reportf(call.Pos(), "new allocates in hotpath function %s", name)
		return
	case isBuiltin(info, call, "append"):
		pass.Reportf(call.Pos(), "append may grow its backing array in hotpath function %s", name)
		return
	}
	// Conversions: T(x) where T is an interface, or string<->[]byte/[]rune.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := info.Types[call.Args[0]].Type
		if _, ok := to.(*types.Interface); ok && from != nil {
			if _, isIface := from.Underlying().(*types.Interface); !isIface {
				pass.Reportf(call.Pos(), "conversion to interface boxes its operand in hotpath function %s", name)
			}
		}
		if from != nil && isStringBytesConv(to, from.Underlying()) {
			pass.Reportf(call.Pos(), "string<->slice conversion copies in hotpath function %s", name)
		}
		return
	}
	// fmt calls allocate (formatting state + boxed arguments).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj, ok := info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s allocates in hotpath function %s", obj.Name(), name)
			return
		}
	}
	// Implicit boxing: concrete arguments passed to interface parameters.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing an existing slice, no per-arg boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		at := info.Types[arg].Type
		if at == nil {
			continue
		}
		if _, isIface := at.Underlying().(*types.Interface); isIface {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxed into interface parameter allocates in hotpath function %s", name)
	}
}

// callSignature returns the callee signature of an ordinary (non-type,
// non-builtin) call, or nil.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// isStringBytesConv reports a conversion between string and []byte/[]rune
// in either direction.
func isStringBytesConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isByteSlice(from)) || (isByteSlice(to) && isStr(from))
}
