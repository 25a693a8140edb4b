// Command afllint runs the repository's invariant analyzers (rawrand,
// vecalias, lockio, typederr, floateq, lockorder, goroleak, netdeadline,
// hotalloc — see internal/analysis) over Go packages. It
// supports two modes:
//
//   - standalone: `afllint [packages]` (default ./...) loads packages via
//     the go tool and prints diagnostics; exit status 1 when any are
//     found.
//   - vettool: `go vet -vettool=$(which afllint) ./...` — afllint speaks
//     the cmd/go vet protocol (-V=full version handshake, then one
//     invocation per package with a *.cfg JSON file); diagnostics go to
//     stderr with exit status 2, matching vet's convention.
//
// Suppress an individual finding with a justified directive on the line
// or the line above:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// The reason is mandatory; a bare ignore suppresses nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"github.com/asyncfl/asyncfilter/internal/analysis"
	"github.com/asyncfl/asyncfilter/internal/analysis/suite"
)

// version is the handshake identity reported to cmd/go; the vet driver
// rejects tools that answer "devel" without a build ID.
const version = "v0.1.0"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// cmd/go probes `vettool -flags` for tool-specific flags (JSON list);
	// afllint exposes none.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return 0
	}
	fs := flag.NewFlagSet("afllint", flag.ContinueOnError)
	printVersion := fs.String("V", "", "print version for the go vet handshake (-V=full)")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	tags := fs.String("tags", "", "comma-separated build tags for standalone package loading (GOFLAGS is honored too)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: afllint [-list] [-tags taglist] [packages]\n       go vet -vettool=<afllint> [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *printVersion != "" {
		// cmd/go parses `<name> version <semver>` (see buildid.go).
		fmt.Printf("afllint version %s\n", version)
		return 0
	}
	if *list {
		for _, a := range suite.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVet(rest[0])
	}
	var buildFlags []string
	if *tags != "" {
		buildFlags = append(buildFlags, "-tags", *tags)
	}
	return runStandalone(buildFlags, rest)
}

// runStandalone loads the patterns through the go tool and reports.
// buildFlags (e.g. -tags) are forwarded to the loader so tag-guarded
// files are analyzed under the same build configuration they compile in;
// GOFLAGS reaches the underlying go list invocation natively.
func runStandalone(buildFlags, patterns []string) int {
	pkgs, err := analysis.Load("", buildFlags, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	bad := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "afllint: %s: type error: %v\n", pkg.ImportPath, terr)
			bad = true
		}
	}
	if bad {
		// A tree that does not type-check cannot be certified clean.
		return 2
	}
	diags, err := analysis.Check(pkgs, suite.Default())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// vetConfig is the subset of cmd/go's vet config file afllint reads.
type vetConfig struct {
	ImportPath                string
	Dir                       string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOutput                string
	VetxOnly                  bool
	SucceedOnTypecheckFailure bool
}

// runVet handles one per-package invocation from `go vet -vettool`.
func runVet(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "afllint: reading vet config: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "afllint: parsing vet config: %v\n", err)
		return 2
	}
	// The driver requires the facts file to exist even though afllint
	// exports none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "afllint: writing vetx output: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	files, pkg, info, err := loadVetPackage(fset, &cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "afllint: %s: %v\n", cfg.ImportPath, err)
		return 2
	}

	diags, err := analysis.Check(
		[]*analysis.Package{{
			ImportPath: cfg.ImportPath,
			Dir:        cfg.Dir,
			Fset:       fset,
			Files:      files,
			Types:      pkg,
			Info:       info,
		}},
		suite.Default(),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d.String())
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// loadVetPackage parses and type-checks the config's GoFiles against the
// export data the driver already built for every dependency.
func loadVetPackage(fset *token.FileSet, cfg *vetConfig) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	imp := analysis.ExportImporter(fset, func(path string) (string, bool) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := cfg.PackageFile[path]
		return f, ok
	})
	info := analysis.NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, err
	}
	return files, pkg, info, nil
}
