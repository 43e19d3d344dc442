//go:build !xlnand_reference

package reference

// On reports whether this is the reference build.
const On = false
