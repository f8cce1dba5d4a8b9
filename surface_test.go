package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The surface tests type-check every non-test Go file of the module,
// once per GOARCH so that the per-arch kernel files count, together with
// e2ebench's non-test files (a separate module that calls the library),
// and hold two rules over the result:
//
//   - every package-level func, type, var and const, and every method,
//     has a non-test caller outside its own declaration, implements a
//     method of an interface the program uses, or is on surfaceAllowed
//     with the reason it exists;
//   - every conversion of a float to an integer type is on
//     floatToIntSites with the guard that keeps the value in range: Go
//     leaves an out-of-range (or NaN) conversion to the platform.
//
// Both lists must stay minimal: an entry that no longer names a flagged
// identifier or a conversion fails the test too.

// surfaceArches are the GOARCH values whose file sets are checked.
var surfaceArches = []string{"amd64", "arm64", "386"}

// surfaceAllowed are the identifiers declared in non-test code that only
// tests call, keyed by package path below repro/internal (or repro/),
// then receiver type and name. A key that ends in "." covers a package.
var surfaceAllowed = map[string]string{
	// Shared test helpers: tests across the packages build, fill and
	// compare tensors and models with these.
	"tensor.Eye":             "test helper: identity matrices for matmul and inverse tests",
	"tensor.Arange":          "test helper: ramp tensors for layout tests",
	"tensor.Tensor.At":       "test helper: indexed reads in assertions",
	"tensor.Tensor.Norm2":    "test helper: Frobenius norms in assertions",
	"tensor.Tensor.AllClose": "test helper: tolerance compare of two tensors",
	"tensor.Tensor.CopyFrom": "test helper: copies a tensor into preallocated storage",
	"tensor.Tensor.Equal":    "test helper: exact compare of two tensors",
	"tensor.Tensor.Fill":     "test helper: sets every element, for gradients in optimizer tests",
	"tensor.Tensor.MaxAbs":   "test helper: largest magnitude in assertions",
	"tensor.Tensor.Mean":     "test helper: mean in assertions",
	"tensor.Tensor.Scale":    "test helper: scaled copies for linearity properties",
	"tensor.Tensor.Set":      "test helper: indexed writes, the pair of At",
	"tensor.Tensor.Sub":      "test helper: differences in assertions",
	"tensor.RNG.Perm":        "test helper: seeded permutations",
	"tensor.RNG.Uniform":     "test helper: seeded uniform tensors, the inputs of most tests",
	"nn.NewSGD":              "test helper: the linear optimizer a dozen nn tests train with",
	"entropy.Decompress":     "test helper: the unbounded decode entropy's tests call",
	"jpegq.LuminanceTable":   "test helper: the Annex K base jpegq's tests scale",
	"codec/faultinject.":     "test-helper package: byte mutations for the failure-handling suites",

	// Reference oracles the fast paths are held to.
	"dct.Direct2D":                   "reference oracle: the naive Eq. 1 DCT",
	"dct.Invert2D":                   "reference oracle: the naive inverse of Direct2D",
	"tensor.MatMulNaive":             "reference oracle: the triple-loop matmul",
	"core.Compressor.RoundTripDense": "reference oracle: the dense fused round trip, ablation 1 (§5)",
	"core.Compressor.NewCompressed":  "reference oracle: the unpooled payload of the Into paths",

	// Test hooks and the API a caller inspects.
	"cpufeat.SetSIMD":                 "test hook: runs every kernel package's portable path on a SIMD host",
	"telemetry.SetEnabled":            "test hook: switches instrumentation for the neutrality tests",
	"codec.StreamWriter.SetChunkSize": "test hook: small chunks exercise chunk boundaries",
	"codec.StreamReader.Skip":         "stream API: drops a record undecoded; the stream, read-ahead, index and fuzz suites drive it",

	// The paper's own artefacts.
	"graph.Builder.BitAnd": "§3.2 bit-level step: tests pin that every device but the GPU rejects it",
	"colorspace.":          "ablation 6: the RGB to YCbCr conversion the paper omits (§3.2)",
}

// floatToIntSites are the float→integer conversions in non-test code,
// keyed by file, enclosing function and expression, each with the guard
// that keeps its operand finite and in the target's range.
var floatToIntSites = map[string]string{
	"internal/jpegq/fast.go: quantize: int32(q)":                                                           "explicit range check: NaN and values outside int32 become math.MinInt32 first",
	"internal/sz/sz.go: quantizer.band: int32(q)":                                                          "q integral from round, and |q| ≤ bins = 65536, which NaN fails",
	"internal/zfp/zfp.go: (*Codec).blockBits: int(math.Round(c.Rate * blockValues))":                       "rate validated to [1,32] at New",
	"internal/zfp/zfp.go: (*Codec).encodeBlock: int32(math.Round(float64(v) * scale))":                     "block scaled by its finite exponent: |v·scale| < 2^(precision−1); blockExponent refuses NaN and ±Inf",
	"internal/telemetry/histogram.go: HistogramSnapshot.Quantile: uint64(math.Ceil(q * float64(s.Count)))": "q clamped to [0,1], NaN to 0",
	"internal/telemetry/registry.go: histUnit: time.Duration(v)":                                           "v is a mean or bucket bound of observed int64 nanoseconds; only an observation ≥ 2^61 ns reaches the top bucket's bound",
	"internal/accel/accel.go: (*Device).estimate: time.Duration(v * float64(time.Second))":                 "modelled seconds: finite sums of byte and FLOP counts over device rates",
}

// dynamicInterfaces are the interfaces the standard library asserts a
// value to at run time, so a method that implements one is called
// without a caller in the program: error itself (fmt), error's Unwrap
// (errors.Is and As), fmt's Stringer and encoding/json's Marshaler.
const dynamicInterfaces = `package dynamic

import (
	"encoding/json"
	"fmt"
)

var (
	_ error
	_ interface{ Unwrap() error }
	_ interface{ Unwrap() []error }
	_ fmt.Stringer
	_ json.Marshaler
)
`

// surfacePkg is one package of go list's output.
type surfacePkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	GoFiles    []string
}

// surfaceProgram is the type-checked module under every arch.
type surfaceProgram struct {
	fset   *token.FileSet
	decls  map[string]*surfaceDecl // by declaring position
	used   map[string]bool         // declaring positions with a caller
	convs  map[string]bool         // floatToIntSites keys found
	ifaces map[*types.Interface]bool
	root   string
}

// surfaceDecl is one declared identifier subject to the caller rule.
type surfaceDecl struct {
	key string // surfaceAllowed key
	obj types.Object
	pos token.Position
}

var (
	surfaceOnce sync.Once
	surfaceProg *surfaceProgram
	surfaceErr  error
)

func loadSurface(t *testing.T) *surfaceProgram {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	surfaceOnce.Do(func() { surfaceProg, surfaceErr = buildSurface() })
	if surfaceErr != nil {
		t.Fatal(surfaceErr)
	}
	return surfaceProg
}

func buildSurface() (*surfaceProgram, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	p := &surfaceProgram{
		fset:   token.NewFileSet(),
		decls:  map[string]*surfaceDecl{},
		used:   map[string]bool{},
		convs:  map[string]bool{},
		ifaces: map[*types.Interface]bool{},
		root:   root,
	}
	files := map[string]*ast.File{}
	parse := func(name string) (*ast.File, error) {
		if f, ok := files[name]; ok {
			return f, nil
		}
		f, err := parser.ParseFile(p.fset, name, nil, parser.SkipObjectResolution)
		files[name] = f
		return f, err
	}
	std := importer.ForCompiler(p.fset, "source", nil)
	dyn, err := parser.ParseFile(p.fset, "dynamic.go", dynamicInterfaces, 0)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{Importer: std}).Check("dynamic", p.fset, []*ast.File{dyn}, info); err != nil {
		return nil, err
	}
	p.interfaces(info)
	for _, arch := range surfaceArches {
		pkgs, err := goList(root, arch)
		if err != nil {
			return nil, err
		}
		im := &surfaceImporter{pkgs: map[string]*types.Package{}, std: std}
		conf := types.Config{Importer: im, Sizes: types.SizesFor("gc", arch)}
		check := func(path string, names []string, subject bool) error {
			var fs []*ast.File
			for _, name := range names {
				f, err := parse(name)
				if err != nil {
					return err
				}
				fs = append(fs, f)
			}
			info := &types.Info{
				Types: map[ast.Expr]types.TypeAndValue{},
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
			}
			pkg, err := conf.Check(path, p.fset, fs, info)
			if err != nil {
				return fmt.Errorf("GOARCH=%s: %v", arch, err)
			}
			im.pkgs[path] = pkg
			p.record(pkg, fs, info, subject)
			return nil
		}
		for _, lp := range pkgs {
			if lp.Standard {
				continue
			}
			var names []string
			for _, f := range lp.GoFiles {
				names = append(names, filepath.Join(lp.Dir, f))
			}
			if err := check(lp.ImportPath, names, true); err != nil {
				return nil, err
			}
		}
		bench, err := filepath.Glob(filepath.Join(root, "e2ebench", "*.go"))
		if err != nil {
			return nil, err
		}
		var names []string
		for _, name := range bench {
			if !strings.HasSuffix(name, "_test.go") {
				names = append(names, name)
			}
		}
		if err := check("repro/e2ebench", names, false); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// goList lists the module's packages and their dependencies, deps first,
// with the file set GOARCH=arch selects.
func goList(root, arch string) ([]surfacePkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list GOARCH=%s: %v: %s", arch, err, stderr.Bytes())
	}
	var pkgs []surfacePkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var lp surfacePkg
		if err := dec.Decode(&lp); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// surfaceImporter serves the module's packages as this arch checked
// them, and the standard library from source.
type surfaceImporter struct {
	pkgs map[string]*types.Package
	std  types.Importer
}

func (im *surfaceImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// record notes one checked package's declarations (when it is subject to
// the rules), its uses of module identifiers, the interfaces it names and
// its float→integer conversions.
func (p *surfaceProgram) record(pkg *types.Package, files []*ast.File, info *types.Info, subject bool) {
	// own maps a declaring position to the source ranges its own
	// declaration covers: a func's body, a type's spec and its methods.
	type span struct{ from, to token.Pos }
	own := map[string][]span{}
	posKey := func(pos token.Pos) string { return p.fset.Position(pos).String() }
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[d.Name]
				k := posKey(obj.Pos())
				own[k] = append(own[k], span{d.Pos(), d.End()})
				if d.Recv != nil {
					if tn := recvTypeName(obj); tn != nil {
						tk := posKey(tn.Pos())
						own[tk] = append(own[tk], span{d.Pos(), d.End()})
					}
				}
				if subject && d.Name.Name != "init" && !(pkg.Name() == "main" && d.Name.Name == "main") && d.Name.Name != "_" {
					p.declare(pkg, obj)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						obj := info.Defs[s.Name]
						k := posKey(obj.Pos())
						own[k] = append(own[k], span{s.Pos(), s.End()})
						if subject {
							p.declare(pkg, obj)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name == "_" {
								continue
							}
							obj := info.Defs[n]
							k := posKey(obj.Pos())
							own[k] = append(own[k], span{s.Pos(), s.End()})
							if subject {
								p.declare(pkg, obj)
							}
						}
					}
				}
			}
		}
		if subject {
			p.conversions(f, info)
		}
	}
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path()+"/", "repro/") {
			continue
		}
		k := posKey(obj.Pos())
		inside := false
		for _, s := range own[k] {
			if s.from <= id.Pos() && id.Pos() < s.to {
				inside = true
				break
			}
		}
		if !inside {
			p.used[k] = true
		}
	}
	p.interfaces(info)
}

// interfaces notes every interface with methods that a checked file
// names or converts to.
func (p *surfaceProgram) interfaces(info *types.Info) {
	note := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			p.ifaces[it] = true
		}
	}
	for _, tv := range info.Types {
		note(tv.Type)
	}
	for _, obj := range info.Uses {
		if tn, ok := obj.(*types.TypeName); ok {
			note(tn.Type())
		}
	}
}

// recvTypeName is the named type a method is declared on.
func recvTypeName(obj types.Object) *types.TypeName {
	sig := obj.Type().(*types.Signature)
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func (p *surfaceProgram) declare(pkg *types.Package, obj types.Object) {
	k := p.fset.Position(obj.Pos()).String()
	if _, ok := p.decls[k]; ok {
		return
	}
	name := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), "repro/"), "internal/") + "."
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		if tn := recvTypeName(obj); tn != nil {
			name += tn.Name() + "."
		}
	}
	p.decls[k] = &surfaceDecl{key: name + obj.Name(), obj: obj, pos: p.fset.Position(obj.Pos())}
}

// conversions records each float→integer conversion of a non-constant.
func (p *surfaceProgram) conversions(f *ast.File, info *types.Info) {
	rel, _ := filepath.Rel(p.root, p.fset.Position(f.Pos()).Filename)
	for _, d := range f.Decls {
		fn := ""
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn = fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv := types.ExprString(fd.Recv.List[0].Type)
				if strings.HasPrefix(recv, "*") {
					recv = "(" + recv + ")"
				}
				fn = recv + "." + fn
			}
		}
		seen := map[string]int{}
		ast.Inspect(d, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if tv, ok := info.Types[call.Fun]; !ok || !tv.IsType() || !isKind(tv.Type, types.IsInteger) {
				return true
			}
			arg := info.Types[call.Args[0]]
			if arg.Value != nil || !isKind(arg.Type, types.IsFloat) {
				return true
			}
			k := fmt.Sprintf("%s: %s: %s", filepath.ToSlash(rel), fn, types.ExprString(call))
			seen[k]++
			if seen[k] > 1 {
				k += fmt.Sprintf(" #%d", seen[k])
			}
			p.convs[k] = true
			return true
		})
	}
}

// isKind reports whether t's underlying type, or every type in a type
// parameter's constraint, has the basic-kind property info.
func isKind(t types.Type, info types.BasicInfo) bool {
	if tp, ok := t.(*types.TypeParam); ok {
		it := tp.Constraint().Underlying().(*types.Interface)
		terms := 0
		for i := 0; i < it.NumEmbeddeds(); i++ {
			if u, ok := it.EmbeddedType(i).(*types.Union); ok {
				for j := 0; j < u.Len(); j++ {
					if !isKind(u.Term(j).Type(), info) {
						return false
					}
					terms++
				}
			}
		}
		return terms > 0
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&info != 0
}

// implementsUsed reports whether method fn of a named type implements a
// method of an interface the program names or of one of
// dynamicInterfaces.
func (p *surfaceProgram) implementsUsed(fn *types.Func) bool {
	tn := recvTypeName(fn)
	if tn == nil {
		return false
	}
	T := tn.Type()
	for it := range p.ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(T, it) || types.Implements(types.NewPointer(T), it)) {
			return true
		}
	}
	return false
}

func allowedKey(key string) (string, bool) {
	if _, ok := surfaceAllowed[key]; ok {
		return key, true
	}
	for k := range surfaceAllowed {
		if strings.HasSuffix(k, ".") && strings.HasPrefix(key, k) && !strings.Contains(key[len(k):], "/") {
			return k, true
		}
	}
	return "", false
}

// TestEveryDeclarationHasACaller holds the caller rule: shipped code is
// code that runs, or is on surfaceAllowed with its reason.
func TestEveryDeclarationHasACaller(t *testing.T) {
	p := loadSurface(t)
	var dead []string
	needed := map[string]bool{}
	for k, d := range p.decls {
		if p.used[k] {
			continue
		}
		if fn, ok := d.obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && p.implementsUsed(fn) {
			continue
		}
		if a, ok := allowedKey(d.key); ok {
			needed[a] = true
			continue
		}
		rel, _ := filepath.Rel(p.root, d.pos.Filename)
		dead = append(dead, fmt.Sprintf("%s:%d: %s", rel, d.pos.Line, d.key))
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, or add it to surfaceAllowed with the reason it exists", d)
	}
	var stale []string
	for k := range surfaceAllowed {
		if !needed[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("surfaceAllowed[%q] names nothing that lacks a caller: remove the entry", k)
	}
}

// TestFloatToIntConversionsGuarded holds the conversion rule: every
// float→integer conversion in non-test code is listed with its guard.
func TestFloatToIntConversionsGuarded(t *testing.T) {
	p := loadSurface(t)
	var found []string
	for k := range p.convs {
		found = append(found, k)
	}
	sort.Strings(found)
	for _, k := range found {
		if floatToIntSites[k] == "" {
			t.Errorf("unlisted float→integer conversion %q: guard its range and add it to floatToIntSites", k)
		}
	}
	for k := range floatToIntSites {
		if !p.convs[k] {
			t.Errorf("floatToIntSites[%q] matches no conversion: remove the entry", k)
		}
	}
}
