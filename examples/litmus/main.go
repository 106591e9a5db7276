// Litmus: explore the strand persistency model interactively. For each
// Figure 2 shape from the paper, this example prints the crash states
// allowed by the formal model (Equations 1-4), then runs the same
// program on the simulated StrandWeaver hardware with dense crash
// injection and reports which states the hardware actually produced.
//
//	go run ./examples/litmus
package main

import (
	"fmt"
	"log"
	"sort"

	sw "strandweaver"
)

type shape struct {
	name    string
	descr   string
	program sw.LitmusProgram
}

func main() {
	shapes := []shape{
		{
			name:  "Figure 2(a,b): persist barrier within a strand",
			descr: "ST A; PB; ST B; NS; ST C  — B may not persist before A; C is unordered",
			program: sw.LitmusProgram{{
				sw.LSt(0, 1), sw.LPB(), sw.LSt(1, 1), sw.LNS(), sw.LSt(2, 1),
			}},
		},
		{
			name:  "Figure 2(c,d): JoinStrand merges strands",
			descr: "ST A; NS; ST B; JS; ST C  — C may not persist before A and B",
			program: sw.LitmusProgram{{
				sw.LSt(0, 1), sw.LNS(), sw.LSt(1, 1), sw.LJS(), sw.LSt(2, 1),
			}},
		},
		{
			name:  "Figure 2(e,f): strong persist atomicity across strands",
			descr: "ST A=1; NS; ST A=2; PB; ST B  — B persisting implies A=2",
			program: sw.LitmusProgram{{
				sw.LSt(0, 1), sw.LNS(), sw.LSt(0, 2), sw.LPB(), sw.LSt(1, 1),
			}},
		},
		{
			name:  "Figure 2(g,h): loads do not order persists",
			descr: "ST A; NS; LD A; PB; ST B  — (A=0,B=1) is allowed",
			program: sw.LitmusProgram{{
				sw.LSt(0, 1), sw.LNS(), sw.LLd(0), sw.LPB(), sw.LSt(1, 1),
			}},
		},
		{
			name:  "Figure 2(i,j): inter-thread strong persist atomicity",
			descr: "T0: ST A; NS; ST B=1  ||  T1: ST B=2; PB; ST C  — C implies B written",
			program: sw.LitmusProgram{
				{sw.LSt(0, 1), sw.LNS(), sw.LSt(1, 1)},
				{sw.LSt(1, 2), sw.LPB(), sw.LSt(2, 1)},
			},
		},
	}

	locName := map[int]string{0: "A", 1: "B", 2: "C"}
	for _, s := range shapes {
		fmt.Printf("== %s ==\n   %s\n", s.name, s.descr)

		allowed, err := sw.AllowedStates(s.program)
		if err != nil {
			log.Fatalf("model: %v", err)
		}
		keys := make([]string, 0, len(allowed))
		for k := range allowed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("   model allows %d crash states:\n", len(allowed))
		for _, k := range keys {
			fmt.Printf("     {%s}\n", renderState(allowed[k], locName))
		}

		res, err := sw.CheckLitmus(s.program, 8)
		if err != nil {
			log.Fatalf("hardware produced a forbidden state: %v", err)
		}
		fmt.Printf("   hardware: %d crash points exercised, %d distinct states observed, all allowed\n\n",
			res.CrashPoints, len(res.States))
	}
	fmt.Println("every state the simulated hardware produced is allowed by Equations 1-4")
}

func renderState(st sw.LitmusState, names map[int]string) string {
	type kv struct {
		loc int
		v   uint64
	}
	var list []kv
	for l, v := range st {
		list = append(list, kv{l, v})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].loc < list[j].loc })
	out := ""
	for i, e := range list {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s=%d", names[e.loc], e.v)
	}
	if out == "" {
		return "initial (nothing persisted)"
	}
	return out
}
