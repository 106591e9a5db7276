package fuzzsched

import "testing"

// FuzzReproParse: DecodeRepro never panics, and any text it accepts
// re-encodes to a repro that decodes to the same genome, failure and
// fingerprint.
func FuzzReproParse(f *testing.F) {
	for _, target := range []string{TargetUndolog, TargetRedolog, "queue"} {
		f.Add(EncodeRepro(SeedGenome(target), "", 0))
	}
	// Corpus entries: mutated schedules behind a provenance comment,
	// one with a recorded failure.
	r := newRng(3)
	g := SeedGenome(TargetUndolog)
	g.Mutant = MutantNoDataFlush
	for i := 0; i < 3; i++ {
		g = Mutate(g, r)
		e := Entry{Genome: g, CovKey: uint64(0x51 + i), Fingerprint: uint64(0xc0ffee * (i + 1)), Schedule: 10 * i}
		if i == 2 {
			e.Failure = "generation 3 torn: cell 5 holds 7, want 6"
		}
		f.Add(EncodeEntry(e))
	}
	f.Fuzz(func(t *testing.T, text string) {
		g, failure, fp, err := DecodeRepro(text)
		if err != nil {
			return
		}
		again := EncodeRepro(g, failure, fp)
		g2, failure2, fp2, err := DecodeRepro(again)
		if err != nil {
			t.Fatalf("re-encoded repro does not decode: %v\n%s", err, again)
		}
		if g2 != g || failure2 != failure || fp2 != fp {
			t.Fatalf("round trip changed the repro:\ngenome %s -> %s\nfailure %q -> %q\nfingerprint %016x -> %016x",
				g.Key(), g2.Key(), failure, failure2, fp, fp2)
		}
	})
}
