module autopart/bench

go 1.22

require autopart v0.0.0

replace autopart => ../
