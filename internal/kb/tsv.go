package kb

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// The TSV wire format is line-oriented so huge knowledge bases stream:
//
//	# comment
//	node\t<name>\t<type>
//	label\t<name>\t<D|U>
//	edge\t<from-name>\t<to-name>\t<label-name>
//
// Labels must be declared before the first edge that uses them; nodes
// must be declared before edges reference them. Node and label names may
// contain any character except tab and newline.

// WriteTSV serialises the graph in the TSV wire format. Output is
// deterministic: nodes in ID order, labels in registration order, edges
// sorted by (from, to, label).
func (g *Graph) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# rex knowledge base: %d nodes, %d edges, %d labels\n",
		g.NumNodes(), g.NumEdges(), g.NumLabels())
	for _, n := range g.nodes {
		fmt.Fprintf(bw, "node\t%s\t%s\n", n.Name, n.Type)
	}
	for i, name := range g.labels {
		d := "U"
		if g.labelDirected[i] {
			d = "D"
		}
		fmt.Fprintf(bw, "label\t%s\t%s\n", name, d)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "edge\t%s\t%s\t%s\n",
			g.NodeName(e.From), g.NodeName(e.To), g.LabelName(e.Label))
	}
	return bw.Flush()
}

// SaveTSV writes the graph to a file in the TSV wire format.
func (g *Graph) SaveTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteTSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTSV parses a graph from the TSV wire format. A line may be up to
// 1 MiB long; the line buffer grows to the longest line read.
func ReadTSV(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		switch fields[0] {
		case "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("kb: line %d: node wants 2 fields, got %d", lineNo, len(fields)-1)
			}
			b.AddNode(fields[1], fields[2])
		case "label":
			if len(fields) != 3 {
				return nil, fmt.Errorf("kb: line %d: label wants 2 fields, got %d", lineNo, len(fields)-1)
			}
			var directed bool
			switch fields[2] {
			case "D":
				directed = true
			case "U":
				directed = false
			default:
				return nil, fmt.Errorf("kb: line %d: label direction must be D or U, got %q", lineNo, fields[2])
			}
			if _, err := b.Label(fields[1], directed); err != nil {
				return nil, fmt.Errorf("kb: line %d: %v", lineNo, err)
			}
		case "edge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("kb: line %d: edge wants 3 fields, got %d", lineNo, len(fields)-1)
			}
			from := b.NodeByName(fields[1])
			if from == InvalidNode {
				return nil, fmt.Errorf("kb: line %d: unknown node %q", lineNo, fields[1])
			}
			to := b.NodeByName(fields[2])
			if to == InvalidNode {
				return nil, fmt.Errorf("kb: line %d: unknown node %q", lineNo, fields[2])
			}
			label := b.LabelByName(fields[3])
			if label == InvalidLabel {
				return nil, fmt.Errorf("kb: line %d: unknown label %q", lineNo, fields[3])
			}
			if _, err := b.AddEdge(from, to, label); err != nil {
				return nil, fmt.Errorf("kb: line %d: %v", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("kb: line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// LoadTSV reads a graph from a file in the TSV wire format.
func LoadTSV(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTSV(f)
}
