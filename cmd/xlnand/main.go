// Command xlnand runs the reproduction of Zambelli et al. (DATE 2012)
// from the command line: the paper's figures (figures), the §6.3
// operating points at one wear level (tradeoff), device biographies
// (lifetime), fleets and striped arrays (fleet), workload traces through
// the queue (trace) and real data through the BCH codec (bch). Each
// subcommand has its own flags; -h lists them.
//
// The exit code is 0 on success, 1 on failure and 2 on a usage error.
// With -json -, lifetime and fleet write only JSON to stdout and their
// tables to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// commands maps each subcommand name to its implementation.
var commands = map[string]func(args []string, stdin io.Reader, stdout, stderr io.Writer) error{
	"figures":  figuresCmd,
	"tradeoff": tradeoffCmd,
	"lifetime": lifetimeCmd,
	"fleet":    fleetCmd,
	"trace":    traceCmd,
	"bch":      bchCmd,
}

const usage = "usage: xlnand {figures|tradeoff|lifetime|fleet|trace|bch} [flags]\n"

// errUsage marks a command line a subcommand cannot run.
var errUsage = errors.New("usage")

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run executes the subcommand named by args[0] and returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprint(stderr, usage)
		return 2
	}
	err := commands[args[0]](args[1:], stdin, stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		if err != errUsage { // a bare errUsage has been reported by the flag set
			fmt.Fprintf(stderr, "xlnand %s: %v\n", args[0], err)
		}
		return 2
	default:
		fmt.Fprintf(stderr, "xlnand %s: %v\n", args[0], err)
		return 1
	}
}

// newFlags returns the flag set of one subcommand, reporting to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("xlnand "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs. A malformed command line, which fs has
// already reported, becomes errUsage.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// usageErrorf reports a command line that parses but cannot run.
func usageErrorf(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errUsage, fmt.Sprintf(format, a...))
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// writeJSON writes a report to path, or to stdout followed by a newline
// when path is "-".
func writeJSON(path string, js []byte, stdout io.Writer) error {
	if path == "-" {
		_, err := fmt.Fprintf(stdout, "%s\n", js)
		return err
	}
	return os.WriteFile(path, js, 0o644)
}
