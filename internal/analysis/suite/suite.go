// Package suite binds the afllint analyzers to the import paths they
// police. Scoping lives here — in the driver, not the analyzers — so the
// analyzer code itself stays unscoped and fixture-testable.
package suite

import (
	"regexp"

	"github.com/asyncfl/asyncfilter/internal/analysis"
	"github.com/asyncfl/asyncfilter/internal/analysis/floateq"
	"github.com/asyncfl/asyncfilter/internal/analysis/goroleak"
	"github.com/asyncfl/asyncfilter/internal/analysis/hotalloc"
	"github.com/asyncfl/asyncfilter/internal/analysis/lockio"
	"github.com/asyncfl/asyncfilter/internal/analysis/lockorder"
	"github.com/asyncfl/asyncfilter/internal/analysis/netdeadline"
	"github.com/asyncfl/asyncfilter/internal/analysis/rawrand"
	"github.com/asyncfl/asyncfilter/internal/analysis/typederr"
	"github.com/asyncfl/asyncfilter/internal/analysis/vecalias"
)

// concurrencyScope matches the packages that own goroutines, locks and
// network connections; the concurrency analyzers apply there.
var concurrencyScope = regexp.MustCompile(`/internal/(transport|topology|replica)$`)

// Default returns the repository's analyzer suite:
//
//   - rawrand everywhere except internal/randx (the one package allowed
//     to touch math/rand);
//   - vecalias in the packages that ingest client vectors (core, fl,
//     transport);
//   - lockio in internal/transport and internal/topology, the packages
//     whose state locks sit next to connection I/O and the round's
//     decide step;
//   - lockorder, goroleak and netdeadline in the concurrency-bearing
//     packages (transport, topology, replica);
//   - typederr, floateq and hotalloc everywhere (hotalloc only fires
//     inside functions annotated //afl:hotpath, so a repo-wide scope
//     costs nothing on unannotated packages).
func Default() []analysis.Scoped {
	return []analysis.Scoped{
		{
			Analyzer: rawrand.Analyzer,
			Exclude:  []*regexp.Regexp{regexp.MustCompile(`/internal/randx$`)},
		},
		{
			Analyzer: vecalias.Analyzer,
			Include:  []*regexp.Regexp{regexp.MustCompile(`/internal/(core|fl|transport)$`)},
		},
		{
			Analyzer: lockio.Analyzer,
			Include:  []*regexp.Regexp{regexp.MustCompile(`/internal/(transport|topology)$`)},
		},
		{
			Analyzer: lockorder.Analyzer,
			Include:  []*regexp.Regexp{concurrencyScope},
		},
		{
			Analyzer: goroleak.Analyzer,
			Include:  []*regexp.Regexp{concurrencyScope},
		},
		{
			Analyzer: netdeadline.Analyzer,
			Include:  []*regexp.Regexp{concurrencyScope},
		},
		{Analyzer: typederr.Analyzer},
		{Analyzer: floateq.Analyzer},
		{Analyzer: hotalloc.Analyzer},
	}
}

// Analyzers returns the unscoped analyzer list, for -list output and the
// smoke tests.
func Analyzers() []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, sc := range Default() {
		out = append(out, sc.Analyzer)
	}
	return out
}
