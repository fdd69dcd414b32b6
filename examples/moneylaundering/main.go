// Money-laundering detection with accumulative risk (§1, application 1).
//
// Bank accounts are vertices, transactions edges. Short transaction flows
// between a suspicious source and destination account are red flags, and
// regulators attach a risk factor to every transaction (foreign capital,
// shell company, ...). A single risky hop is inconclusive, so the query
// asks for hop-constrained paths whose ACCUMULATED risk crosses a
// threshold — the accumulative-value extension (Appendix E, Algorithm 7).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pathenum"
)

const (
	numAccounts = 3000
	numTxns     = 20000
	hopK        = 5
	riskBar     = 2.0 // minimum accumulated risk to report
)

func main() {
	rng := rand.New(rand.NewSource(23))

	var edges []pathenum.Edge
	for i := 0; i < numTxns; i++ {
		edges = append(edges, pathenum.Edge{
			From: pathenum.VertexID(rng.Intn(numAccounts)),
			To:   pathenum.VertexID(rng.Intn(numAccounts)),
		})
	}
	// A laundering chain through known-risky intermediaries.
	chain := []pathenum.VertexID{42, 1200, 2711, 99}
	for i := 0; i+1 < len(chain); i++ {
		edges = append(edges, pathenum.Edge{From: chain[i], To: chain[i+1]})
	}
	g, err := pathenum.NewGraph(numAccounts, edges)
	if err != nil {
		log.Fatal(err)
	}

	// Risk factor per transaction: deterministic hash stands in for the
	// regulator's scoring model; the planted intermediaries are high-risk.
	risky := map[pathenum.VertexID]bool{1200: true, 2711: true}
	risk := func(from, to pathenum.VertexID) float64 {
		r := float64((int(from)*13+int(to)*7)%10) / 20 // 0 .. 0.45
		if risky[from] || risky[to] {
			r += 1.0
		}
		return r
	}

	source, dest := chain[0], chain[len(chain)-1]
	fmt.Printf("screening flows %d -> %d within %d hops, risk >= %.1f\n\n",
		source, dest, hopK, riskBar)

	reported := 0
	res, err := pathenum.Enumerate(g,
		pathenum.Query{S: source, T: dest, K: hopK},
		pathenum.Options{
			Accumulate: &pathenum.Accumulator{
				Value:    risk,
				Combine:  func(a, b float64) float64 { return a + b },
				Identity: 0,
				Accept:   func(total float64) bool { return total >= riskBar },
			},
			Emit: func(p []pathenum.VertexID) bool {
				total := 0.0
				for i := 0; i+1 < len(p); i++ {
					total += risk(p[i], p[i+1])
				}
				reported++
				if reported <= 5 {
					fmt.Printf("  flow %v, accumulated risk %.2f\n", p, total)
				}
				return true
			},
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d high-risk flows (of which %d printed); index held %d edges\n",
		res.Counters.Results, min(reported, 5), res.IndexEdges)

	// Contrast: how many flows exist regardless of risk?
	all, err := pathenum.Count(g, pathenum.Query{S: source, T: dest, K: hopK})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("total flows within %d hops: %d (risk filter kept %.1f%%)\n",
		hopK, all, 100*float64(res.Counters.Results)/float64(max(all, 1)))
}
