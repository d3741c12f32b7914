//! Empty stand-in: `colossalai-comm` and `colossalai-parallel` declare `crossbeam` but call nothing in it.
