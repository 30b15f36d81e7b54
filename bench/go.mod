module whereru/bench

go 1.22

require whereru v0.0.0

replace whereru => ../
