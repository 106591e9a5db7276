package crashcut

import (
	"fmt"
	"testing"
)

// TestTargetKeysNameTheirArguments: each constructor keys exactly the
// arguments it takes. Over a small grid of every constructor's
// arguments, built twice, equal arguments give equal keys, and no two
// distinct argument tuples share a key, of one constructor or of two.
func TestTargetKeysNameTheirArguments(t *testing.T) {
	keyOf := map[string]string{}  // call -> key
	callOf := map[string]string{} // key -> call
	add := func(tg Target, format string, args ...any) {
		call := fmt.Sprintf(format, args...)
		if k, ok := keyOf[call]; ok && k != tg.Key {
			t.Errorf("%s keyed %q, then %q", call, k, tg.Key)
		}
		if c, ok := callOf[tg.Key]; ok && c != call {
			t.Errorf("%s and %s share key %q", c, call, tg.Key)
		}
		keyOf[call], callOf[tg.Key] = tg.Key, call
	}
	for pass := 0; pass < 2; pass++ {
		for _, ctrls := range []int{0, 1, 2, 4} {
			add(RedoRecord(ctrls), "RedoRecord(%d)", ctrls)
			for _, ops := range []int{1, 4, 10} {
				add(DirectRedolog(ops, ctrls), "DirectRedolog(%d, %d)", ops, ctrls)
				for _, threads := range []int{1, 2, 3} {
					for _, mutant := range []bool{false, true} {
						add(DirectUndolog(threads, ops, mutant, ctrls), "DirectUndolog(%d, %d, %t, %d)", threads, ops, mutant, ctrls)
					}
					for _, bench := range []string{"queue", "hashmap"} {
						for _, seed := range []int64{1, 2} {
							wl, err := Workload(bench, threads, ops, seed, ctrls)
							if err != nil {
								t.Fatal(err)
							}
							add(wl, "Workload(%q, %d, %d, %d, %d)", bench, threads, ops, seed, ctrls)
						}
					}
				}
			}
		}
	}
}
