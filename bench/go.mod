module coresetclustering/bench

go 1.24

require coresetclustering v0.0.0

replace coresetclustering => ../
