package solver

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

var configTagger = reflect.TypeOf((*interface{ ConfigTag() string })(nil)).Elem()

// addressPaths lists every non-nil pointer, map, func or chan inside v
// that fmt's %#v would print: an address that differs between
// processes, so a checkpoint tagged with it could never resume
// elsewhere. A root whose type has a ConfigTag method is rendered by
// that method instead (ConfigTag prefers it), so the walk trusts it;
// below the root, %#v never calls ConfigTag, so nothing stops the walk.
func addressPaths(v reflect.Value, path string, root bool, out *[]string) {
	if !v.IsValid() {
		return
	}
	if root && v.Type().Implements(configTagger) {
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if !v.IsNil() {
			*out = append(*out, fmt.Sprintf("%s (%s)", path, v.Type()))
		}
	case reflect.Interface:
		addressPaths(v.Elem(), path, false, out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			addressPaths(v.Field(i), path+"."+v.Type().Field(i).Name, false, out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			addressPaths(v.Index(i), fmt.Sprintf("%s[%d]", path, i), false, out)
		}
	}
}

// TestRegistryConfigTagsHoldNoAddress pins the premise checkpoint
// identity rests on: ConfigTag of every registry-built solver prints
// the same bytes in every process. The registry builds plain values
// with no pointer, map, func or chan that %#v would print, so a daemon
// restarted on a state dir resumes its parked jobs.
func TestRegistryConfigTagsHoldNoAddress(t *testing.T) {
	for _, name := range Names() {
		for _, spec := range []Spec{
			{Name: name},
			{Name: name, Layers: 2, Seed: 7, Backend: "fused-full",
				Inner: []Spec{{Name: "qaoa", Layers: 1, Backend: "dense"}, {Name: "anneal"}}},
		} {
			s, err := Build(spec)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			var paths []string
			addressPaths(reflect.ValueOf(s), fmt.Sprintf("%T", s), true, &paths)
			if len(paths) > 0 {
				t.Errorf("%+v: ConfigTag would print addresses at %s", spec, strings.Join(paths, ", "))
			}
			again, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			tag := ConfigTag(s)
			// %#v prints a pointer or func as (T)(0x…).
			if tag != ConfigTag(again) || strings.Contains(tag, ")(0x") {
				t.Errorf("%+v: unstable tag %s vs %s", spec, tag, ConfigTag(again))
			}
		}
	}

	// The walk has teeth: without its own ConfigTag an explicit Model
	// would print as an address.
	var paths []string
	addressPaths(reflect.ValueOf(MLAdaptiveSolver{Model: DefaultSelector()}), "ml", false, &paths)
	if len(paths) != 1 || !strings.Contains(paths[0], "ml.Model") {
		t.Fatalf("walk missed the Model pointer: %v", paths)
	}
}
