let lex2 c1 c2 = if c1 <> 0 then c1 else c2
let lex3 c1 c2 c3 = if c1 <> 0 then c1 else if c2 <> 0 then c2 else c3
