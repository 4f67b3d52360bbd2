module msod/benchmark

go 1.22

require msod v0.0.0

replace msod => ../
