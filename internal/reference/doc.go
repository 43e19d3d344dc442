// Package reference is the switch of the reference build. Built with the
// xlnand_reference tag, On is true and every fast path that branches on
// it takes the production slow path it is proven equal to, so a run of
// the whole stack can be compared byte for byte against the normal
// build. On is a constant: in the normal build the compiler deletes the
// slow branch.
package reference
