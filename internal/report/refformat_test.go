package report

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// refFormat, refFormatWarning and refWriteStack are the strings.Builder +
// fmt.Fprintf renderer that AppendFormat replaced, kept unchanged as the
// byte oracle of FuzzFormatDifferential.
func refFormat(c *Collector) string {
	var b strings.Builder
	for _, w := range c.Sites() {
		b.WriteString(refFormatWarning(w, c.res))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "== %d distinct location(s), %d occurrence(s), %d suppressed site(s)\n",
		c.Locations(), c.Occurrences(), c.suppressed)
	return b.String()
}

func refFormatWarning(w *Warning, res trace.Resolver) string {
	var b strings.Builder
	switch w.Kind {
	case KindRace:
		fmt.Fprintf(&b, "==%s== Possible data race %s variable at 0x%X\n", w.Tool, w.Access, w.Addr)
	case KindDeadlock:
		fmt.Fprintf(&b, "==%s== Lock order violation involving address 0x%X\n", w.Tool, w.Addr)
	case KindUseAfterFree:
		fmt.Fprintf(&b, "==%s== Invalid %s of size %d at 0x%X (freed block)\n", w.Tool, w.Access, w.Size, w.Addr)
	case KindInvalidFree:
		fmt.Fprintf(&b, "==%s== Invalid free at 0x%X\n", w.Tool, w.Addr)
	case KindHighLevel:
		fmt.Fprintf(&b, "==%s== High-level data race (inconsistent lock granularity)\n", w.Tool)
	}
	refWriteStack(&b, w.Stack, res, "   ")
	if res != nil {
		if blk := res.BlockInfo(w.Block); blk != nil {
			fmt.Fprintf(&b, "==%s== Address 0x%X is %d bytes inside a block of size %d (%s) alloc'd by thread %d\n",
				w.Tool, w.Addr, w.Off, blk.Size, blk.Tag, blk.Thread)
			refWriteStack(&b, blk.Stack, res, "   ")
		}
	}
	if w.PrevStack != trace.NoStack {
		fmt.Fprintf(&b, "==%s== Conflicts with a previous access\n", w.Tool)
		refWriteStack(&b, w.PrevStack, res, "   ")
	}
	if w.State != "" {
		fmt.Fprintf(&b, "==%s== Previous state: %s\n", w.Tool, w.State)
	}
	if w.Count > 1 {
		fmt.Fprintf(&b, "==%s== (%d occurrences at this site)\n", w.Tool, w.Count)
	}
	return b.String()
}

func refWriteStack(b *strings.Builder, id trace.StackID, res trace.Resolver, indent string) {
	if res == nil || id == trace.NoStack {
		return
	}
	frames := res.Stack(id)
	for i := len(frames) - 1; i >= 0; i-- { // innermost first, like Helgrind
		f := frames[i]
		pos := i == len(frames)-1
		prefix := "by"
		if pos {
			prefix = "at"
		}
		fmt.Fprintf(b, "%s%s %s (%s:%d)\n", indent, prefix, f.Fn, f.File, f.Line)
	}
}
