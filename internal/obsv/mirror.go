package obsv

import (
	"fmt"
	"reflect"
	"strings"
)

// Mirror publishes a Stats-style struct on the registry: one counter per
// field, named by the field's `metric:"afl_..."` tag plus labelSuffix,
// and an OnCollect collector that calls read and Sets every counter, so a
// scrape always equals read() field for field. The struct is the only
// place a counter's existence and series name are stated.
//
// Every field must be an int tagged with a name starting "afl_", and no
// two fields may share a name. Anything else is a programming error and
// panics at registration, naming the field.
func Mirror[T any](reg *Registry, labelSuffix string, read func() T) {
	typ := reflect.TypeFor[T]()
	counters := make([]*Counter, typ.NumField())
	seen := make(map[string]string, len(counters))
	for i := range counters {
		f := typ.Field(i)
		name := f.Tag.Get("metric")
		switch {
		case f.Type.Kind() != reflect.Int:
			panic(fmt.Sprintf("obsv: Mirror[%v]: field %s is %v, not int", typ, f.Name, f.Type))
		case !strings.HasPrefix(name, "afl_"):
			panic(fmt.Sprintf("obsv: Mirror[%v]: field %s has no metric:\"afl_...\" tag", typ, f.Name))
		case seen[name] != "":
			panic(fmt.Sprintf("obsv: Mirror[%v]: fields %s and %s both name %s", typ, seen[name], f.Name, name))
		}
		seen[name] = f.Name
		counters[i] = reg.Counter(name + labelSuffix)
	}
	reg.OnCollect(func() {
		v := reflect.ValueOf(read())
		for i, c := range counters {
			c.Set(uint64(v.Field(i).Int()))
		}
	})
}
