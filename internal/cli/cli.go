// Package cli is shared plumbing for the command-line front ends: an
// error-latching output writer, the exit-code policy built on it, and
// the fault-injection flags the simulating commands share (FaultFlags).
//
// The repo's INV-errwrite invariant says result-persisting code must
// consume write errors — a truncated table that looks plausible is
// worse than a crash. A CLI printing dozens of lines cannot sensibly
// if-err every Fprintf, so W latches the first error each stream sees
// and Exit folds it into the process exit code: output piped into a
// full disk or a closed pipe turns success into a reported failure.
package cli

import (
	"fmt"
	"io"
)

// W wraps an output stream and remembers the first write error.
// It implements io.Writer, so it can also back flag.FlagSet output.
type W struct {
	w   io.Writer
	err error
}

// Wrap returns a latching writer over w.
func Wrap(w io.Writer) *W { return &W{w: w} }

// Write implements io.Writer, latching the first error.
func (w *W) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.latch(err)
	return n, err
}

// Printf formats to the stream; the write error is latched, not lost.
func (w *W) Printf(format string, args ...any) {
	_, err := fmt.Fprintf(w.w, format, args...)
	w.latch(err)
}

// Print writes the operands to the stream, latching any error.
func (w *W) Print(args ...any) {
	_, err := fmt.Fprint(w.w, args...)
	w.latch(err)
}

// Println writes the operands plus a newline, latching any error.
func (w *W) Println(args ...any) {
	_, err := fmt.Fprintln(w.w, args...)
	w.latch(err)
}

// Err returns the first write error the stream saw, if any.
func (w *W) Err() error { return w.err }

func (w *W) latch(err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
}

// Exit resolves a command's final exit code: if the run itself
// succeeded but stdout lost a write, the loss is reported on stderr
// (best effort — stderr may be broken too) and the exit code becomes 1.
func Exit(cmd string, code int, stdout, stderr *W) int {
	if code == 0 && stdout.Err() != nil {
		stderr.Println(cmd+": stdout write error:", stdout.Err())
		return 1
	}
	return code
}
