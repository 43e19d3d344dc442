module xlnand/bench

go 1.24

require xlnand v0.0.0

replace xlnand => ../
