module rex/benchmark

go 1.24

require rex v0.0.0

replace rex => ../
