// Command ssched solves steady-state scheduling problems on a
// platform description and prints the LP solution and, where the
// theory allows it (§4), the reconstructed periodic schedule. It is a
// thin shell over the pkg/steady facade.
//
// Usage:
//
//	ssched -problem masterslave -master P1 platform.json
//	ssched -problem scatter -source P1 -targets P4,P5,P6 platform.json
//	ssched -problem multicast -source P0 -targets P5,P6 platform.json
//	ssched -problem broadcast -source P0 platform.json
//	ssched -problem reduce -root P1 platform.json
//	ssched -dot platform.json            # emit Graphviz and exit
//
// With no file argument the paper's Figure 1 platform is used
// (Figure 2 for -problem multicast).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/pkg/steady"
	"repro/pkg/steady/platform"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssched:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ssched", flag.ContinueOnError)
	problem := fs.String("problem", "masterslave", "masterslave|scatter|multicast|broadcast|reduce")
	master := fs.String("master", "", "master/root node name (default: first node)")
	source := fs.String("source", "", "source node name (default: first node)")
	root := fs.String("root", "", "reduce root node name (default: first node)")
	targets := fs.String("targets", "", "comma-separated target node names")
	sendrecv := fs.Bool("sendrecv", false, "use the send-OR-receive port model (§5.1.1)")
	dot := fs.Bool("dot", false, "print the platform in Graphviz DOT format and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := loadPlatform(fs.Args(), *problem)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Fprint(w, p.DOT())
		return nil
	}

	model := steady.SendAndReceive
	if *sendrecv {
		model = steady.SendOrReceive
	}
	ctx := context.Background()

	// One helper per facade call: build the solver for this problem
	// family and run it on the loaded platform.
	solve := func(spec steady.Spec) (*steady.Result, error) {
		solver, err := steady.New(spec)
		if err != nil {
			return nil, err
		}
		return solver.Solve(ctx, p)
	}
	splitTargets := func() ([]string, error) {
		if *targets == "" {
			return nil, fmt.Errorf("-targets required for %s", *problem)
		}
		return strings.Split(*targets, ","), nil
	}

	switch *problem {
	case "masterslave":
		res, err := solve(steady.Spec{Problem: "masterslave", Root: *master, Model: model})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "ntask(G) = %v = %.6f tasks/time-unit (%s model)\n",
			res.Throughput, res.ThroughputFloat(), res.Model)
		for _, n := range res.Nodes() {
			fmt.Fprintf(w, "  alpha[%s] = %v\n", n.Name, n.Alpha)
		}
		for _, l := range res.Links() {
			if l.Busy.Sign() > 0 {
				fmt.Fprintf(w, "  s[%s->%s] = %v\n", l.From, l.To, l.Busy)
			}
		}
		if model == steady.SendAndReceive {
			sch, err := res.Reconstruct()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "schedule: %s\n", sch.Summary)
			for i, s := range sch.Slots {
				fmt.Fprintf(w, "  slot %d (dur %v):", i, s.Dur)
				for _, l := range s.Links {
					fmt.Fprintf(w, " %s->%s", l[0], l[1])
				}
				fmt.Fprintln(w)
			}
		} else {
			ev, err := res.EvaluateGreedy()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "greedy general-graph schedule: achieved %v of bound %v (%d slots)\n",
				ev.Achieved, ev.Bound, ev.Slots)
		}
	case "scatter":
		tg, err := splitTargets()
		if err != nil {
			return err
		}
		res, err := solve(steady.Spec{Problem: "scatter", Root: *source, Targets: tg, Model: model})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "TP = %v = %.6f scatters/time-unit\n", res.Throughput, res.ThroughputFloat())
		if model == steady.SendAndReceive {
			sch, err := res.Reconstruct()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "schedule: %s\n", sch.Summary)
		}
	case "multicast":
		tg, err := splitTargets()
		if err != nil {
			return err
		}
		sum, err := solve(steady.Spec{Problem: "multicast-sum", Root: *source, Targets: tg})
		if err != nil {
			return err
		}
		bound, err := solve(steady.Spec{Problem: "multicast", Root: *source, Targets: tg})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "sum-LP (achievable)  TP = %v\n", sum.Throughput)
		fmt.Fprintf(w, "max-LP (upper bound) TP = %v\n", bound.Throughput)
		if p.NumEdges() <= 24 {
			pack, err := solve(steady.Spec{Problem: "multicast-trees", Root: *source, Targets: tg})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "exact tree packing   TP = %v (%d trees)\n", pack.Throughput, pack.Trees)
		} else {
			fmt.Fprintf(w, "exact tree packing skipped (platform too large; the problem is NP-hard)\n")
		}
	case "broadcast":
		res, err := solve(steady.Spec{Problem: "broadcast", Root: *source})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "broadcast TP = %v (achievable per [5])\n", res.Throughput)
	case "reduce":
		res, err := solve(steady.Spec{Problem: "reduce", Root: *root})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "reduce TP = %v\n", res.Throughput)
	default:
		return fmt.Errorf("unknown problem %q", *problem)
	}
	return nil
}

func loadPlatform(args []string, problem string) (*platform.Platform, error) {
	if len(args) == 0 {
		if problem == "multicast" || problem == "broadcast" {
			return platform.Figure2(), nil
		}
		return platform.Figure1(), nil
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return platform.ReadJSON(f)
}
