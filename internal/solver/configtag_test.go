package solver

import (
	"crypto/sha256"
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
			{Name: name, Layers: 2, Seed: 7, Backend: "fused-full"},
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

	// The walk has teeth: a member held by pointer prints as an
	// address.
	var paths []string
	addressPaths(reflect.ValueOf(BestOfSolver{Solvers: []Solver{&fixedSolver{name: "p"}}}), "best", true, &paths)
	if len(paths) != 1 || !strings.Contains(paths[0], "best.Solvers[0]") {
		t.Fatalf("walk missed the member pointer: %v", paths)
	}
}

// TestRegistryConfigTagsUnchanged pins the sha256 of ConfigTag for every
// registered name, at its zero spec and at a spec setting every QAOA
// field, to the tags recorded before Spec lost the fields no command,
// daemon or benchmark set (restarts, sweeps, trials, cutoff, inner
// members, the racing budget). A checkpoint header carries these tags
// and a serve job's checkpoint resumes only under them, so none may move
// by accident. The three that render a qaoa.Options (qaoa, best,
// rqaoa) moved once, on purpose, when Options lost its optimizer
// switch and initial-angle override. The two that render a GWSolver
// (gw, best: GWSolver has no ConfigTag method, so its tag is %#v of
// its options) moved twice, on purpose:
// when sdp.Options lost Method and Rho with the ADMM reference solver,
// and when gw.Options (a rounding count no caller set, around an
// sdp.Options) gave way to sdp.Options and sdp.Options lost its unset
// Rank. Their checkpoints re-solve once instead of resuming. Serve job
// ids do not hash ConfigTags and did not move.
func TestRegistryConfigTagsUnchanged(t *testing.T) {
	want := map[string][2]string{
		"anneal":       {"6ee4003d0c83ae7b9bb93e6966271cba20bfcbbc97edd5b3a07fef4679a427f5", "6ee4003d0c83ae7b9bb93e6966271cba20bfcbbc97edd5b3a07fef4679a427f5"},
		"best":         {"a0fc4043c59a81dce768c85cc75cbd4ac07607cb02e74c0a74e2f8457512fc1e", "45dc5280e9c2fb3eaab16289cfdf194b1aa28ce62273619c4115bc74ed455f45"},
		"exact":        {"8e2569f44487de74de31e660401c0aeaa3d548caae7c930c65e6b164e3000217", "8e2569f44487de74de31e660401c0aeaa3d548caae7c930c65e6b164e3000217"},
		"gw":           {"9b460e7ffc46de0da4a4773d693d5d158ab9b65ccdfd4c3b89388afa3a1b8483", "9b460e7ffc46de0da4a4773d693d5d158ab9b65ccdfd4c3b89388afa3a1b8483"},
		"one-exchange": {"2b5f94864ca7ae5f0e478d108a59a8b3c98ff704d95826d2e28abfd57a7e1996", "2b5f94864ca7ae5f0e478d108a59a8b3c98ff704d95826d2e28abfd57a7e1996"},
		"qaoa":         {"1289d9e02b9ab32644a8e4ff9a17875c19b068b10d6ccf7aa002873854bc9e38", "64e69b9d25acd1f3506c903716160811cca54b95bb9d5f145b412688b0c2418a"},
		"random":       {"6ffea3bfb3824aaeeb09f6a4120fa5642fb8cdb2ba6a1d8d9411d22741ea4ecf", "6ffea3bfb3824aaeeb09f6a4120fa5642fb8cdb2ba6a1d8d9411d22741ea4ecf"},
		"rqaoa":        {"8e654a75aae11310725653c51389f5e2222c8da637337f136adf071cb9814f16", "5e057827a825c2ebf9bdd0ed2f65756f063c27e844a955267c041db7b943cf32"},
	}
	for name, sums := range want {
		for i, spec := range []Spec{
			{Name: name},
			{Name: name, Layers: 2, Seed: 7, Backend: "fused-full", MaxIters: 20, Rhobeg: 0.4, Shots: 64},
		} {
			s, err := Build(spec)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			tag := ConfigTag(s)
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tag))); got != sums[i] {
				t.Errorf("%+v: ConfigTag moved: sha256 %s, want %s\n%s", spec, got, sums[i], tag)
			}
		}
	}
}
