package obs

import (
	"bytes"
	"fmt"
	"io"
	"slices"
)

// injectLabel prepends key="val" to a rendered label block. An empty val
// injects nothing: the block stays as its registry renders it alone.
func injectLabel(labels, key, val string) string {
	if val == "" {
		return labels
	}
	head := fmt.Sprintf("{%s=%q", key, val)
	if labels == "" {
		return head + "}"
	}
	return head + "," + labels[1:]
}

// WriteMergedPrometheus exports several registries as one Prometheus text
// stream — the package's only renderer. A registry's samples are told apart
// by an injected label (e.g. shard="2"), or rendered unlabelled where its
// value is empty. Families sharing a name across registries are folded into
// one HELP/TYPE header; within a family, samples appear registry by registry
// in the given order, children in label order. Registries and labelVals pair
// up by index.
func WriteMergedPrometheus(w io.Writer, labelKey string, labelVals []string, regs []*Registry) error {
	if len(labelVals) != len(regs) {
		return fmt.Errorf("obs: %d label values for %d registries", len(labelVals), len(regs))
	}
	var names []string
	for _, r := range regs {
		names = append(names, r.names...)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	var b bytes.Buffer // rendered whole, then written: one place for w to fail
	for _, name := range names {
		headerDone := false
		for ri, r := range regs {
			f, ok := r.families[name]
			if !ok {
				continue
			}
			if !headerDone {
				headerDone = true
				fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.kind)
			}
			for _, i := range sortedChildren(f) {
				ch := f.children[i]
				labels := injectLabel(ch.labels, labelKey, labelVals[ri])
				switch h := ch.histogram(); {
				case h != nil:
					cum := uint64(0)
					for bi, bound := range h.bounds {
						cum += h.counts[bi]
						fmt.Fprintf(&b, "%s_bucket%s %d\n", name, mergeLE(labels, fmtFloat(bound)), cum)
					}
					cum += h.counts[len(h.bounds)]
					fmt.Fprintf(&b, "%s_bucket%s %d\n%s_sum%s %s\n%s_count%s %d\n",
						name, mergeLE(labels, "+Inf"), cum, name, labels, fmtFloat(h.sum), name, labels, h.n)
				case ch.fn != nil:
					fmt.Fprintf(&b, "%s%s %s\n", name, labels, fmtFloat(ch.fn()))
				case ch.c != nil:
					fmt.Fprintf(&b, "%s%s %s\n", name, labels, fmtFloat(ch.c.Value()))
				}
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}
