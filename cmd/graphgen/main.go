// Command graphgen generates workload graphs in the repository's
// edge-list format (see internal/graph.Decode).
//
// Usage:
//
//	graphgen -family gnp -n 256 -p 0.05 -seed 7 > g.txt
//	graphgen -family tree -n 1000 -out tree.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"stoneage/internal/graph"
	"stoneage/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	family := fs.String("family", "gnp", "path|cycle|star|clique|grid|torus|tree|binary|caterpillar|broom|gnp|bipartite|lattice")
	n := fs.Int("n", 64, "number of nodes")
	p := fs.Float64("p", 0, "G(n,p) edge probability (default 4/n)")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	src := xrand.New(*seed)
	prob := *p
	if prob <= 0 {
		prob = 4.0 / float64(*n)
	}
	side := int(math.Round(math.Sqrt(float64(*n))))
	var g *graph.Graph
	switch *family {
	case "path":
		g = graph.Path(*n)
	case "cycle":
		g = graph.Cycle(*n)
	case "star":
		g = graph.Star(*n)
	case "clique":
		g = graph.Clique(*n)
	case "grid":
		g = graph.Grid(side, side)
	case "torus":
		g = graph.Torus(side, side)
	case "tree":
		g = graph.RandomTree(*n, src)
	case "binary":
		g = graph.BinaryTree(*n)
	case "caterpillar":
		g = graph.Caterpillar(*n)
	case "broom":
		g = graph.Broom(*n)
	case "gnp":
		// The streamed builder draws O(n + m) coins, not one per node
		// pair, so large instances are cheap.
		var err error
		if g, err = graph.ToGraph(graph.GnpConnectedStream(*n, prob, *seed)); err != nil {
			return err
		}
	case "bipartite":
		g = graph.CompleteBipartite(*n/2, *n-*n/2)
	case "lattice":
		g = graph.ProneuralLattice(side, side)
	default:
		return fmt.Errorf("unknown family %q", *family)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return g.Encode(w)
}
