module chimera/benchmark

go 1.22

require chimera v0.0.0

replace chimera => ../
