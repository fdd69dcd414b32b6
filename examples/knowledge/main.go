// Knowledge-graph path queries with action-sequence constraints (§1,
// application 3).
//
// Entities connected by many short paths tend to be related, which is why
// knowledge-graph completion trains on hop-constrained path sets. Real
// deployments additionally constrain the *sequence of actions* along a
// path (e.g. author -write-> paper -mention-> topic), which Appendix E
// models as a DFA over edge labels (Algorithm 8).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pathenum"
)

// Edge actions in our toy bibliographic knowledge graph.
const (
	actWrite   pathenum.Label = iota // author -> paper
	actMention                       // paper -> topic
	actCite                          // paper -> paper
	numActions
)

const (
	numAuthors = 300
	numPapers  = 900
	numTopics  = 120
	hopK       = 4
)

// Entity id layout: authors, then papers, then topics.
func paper(i int) pathenum.VertexID  { return pathenum.VertexID(numAuthors + i) }
func topic(i int) pathenum.VertexID  { return pathenum.VertexID(numAuthors + numPapers + i) }
func author(i int) pathenum.VertexID { return pathenum.VertexID(i) }

func main() {
	rng := rand.New(rand.NewSource(5))
	n := numAuthors + numPapers + numTopics

	type labeled struct {
		e pathenum.Edge
		l pathenum.Label
	}
	var all []labeled
	add := func(from, to pathenum.VertexID, l pathenum.Label) {
		all = append(all, labeled{e: pathenum.Edge{From: from, To: to}, l: l})
	}
	for i := 0; i < numPapers; i++ {
		// 1-3 authors write each paper.
		for a := 0; a < 1+rng.Intn(3); a++ {
			add(author(rng.Intn(numAuthors)), paper(i), actWrite)
		}
		// Each paper mentions 1-2 topics and cites a few papers.
		for m := 0; m < 1+rng.Intn(2); m++ {
			add(paper(i), topic(rng.Intn(numTopics)), actMention)
		}
		for c := 0; c < rng.Intn(4); c++ {
			add(paper(i), paper(rng.Intn(numPapers)), actCite)
		}
	}

	edges := make([]pathenum.Edge, len(all))
	labels := map[pathenum.Edge]pathenum.Label{}
	for i, le := range all {
		edges[i] = le.e
		labels[le.e] = le.l
	}
	g, err := pathenum.NewGraph(n, edges)
	if err != nil {
		log.Fatal(err)
	}
	labelOf := func(from, to pathenum.VertexID) pathenum.Label {
		return labels[pathenum.Edge{From: from, To: to}]
	}

	// Relation-prediction feature: does author A relate to topic T via the
	// exact action sequence write -> mention?
	dfa, err := pathenum.ExactSequenceDFA(int(numActions), []pathenum.Label{actWrite, actMention})
	if err != nil {
		log.Fatal(err)
	}

	// Probe a handful of author/topic pairs and report path support.
	fmt.Println("author -> topic support via write->mention:")
	shown := 0
	for i := 0; i < numAuthors && shown < 5; i++ {
		a, tp := author(i), topic(i%numTopics)
		res, err := pathenum.Enumerate(g,
			pathenum.Query{S: a, T: tp, K: hopK},
			pathenum.Options{Sequence: &pathenum.SequenceConstraint{
				Automaton: dfa,
				Label:     labelOf,
			}})
		if err != nil {
			log.Fatal(err)
		}
		if res.Counters.Results > 0 {
			shown++
			// Compare with the unconstrained path count: the sequence
			// constraint separates true write->mention support from
			// arbitrary citation chains.
			total, err := pathenum.Count(g, pathenum.Query{S: a, T: tp, K: hopK})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  author %d ~ topic %d: %d write->mention paths (of %d total paths)\n",
				a, tp, res.Counters.Results, total)
		}
	}
	if shown == 0 {
		fmt.Println("  (no supported pairs in this random instance)")
	}

	// A longer pattern: write -> cite -> mention, i.e. the author's paper
	// cites a paper on the topic.
	dfa2, err := pathenum.ExactSequenceDFA(int(numActions), []pathenum.Label{actWrite, actCite, actMention})
	if err != nil {
		log.Fatal(err)
	}
	count := 0
	for i := 0; i < 50; i++ {
		res, err := pathenum.Enumerate(g,
			pathenum.Query{S: author(i), T: topic(i % numTopics), K: hopK},
			pathenum.Options{Sequence: &pathenum.SequenceConstraint{Automaton: dfa2, Label: labelOf}})
		if err != nil {
			log.Fatal(err)
		}
		count += int(res.Counters.Results)
	}
	fmt.Printf("\nwrite->cite->mention support across 50 probe pairs: %d paths\n", count)
}
