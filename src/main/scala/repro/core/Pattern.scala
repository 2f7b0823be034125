package repro.core

/** Token of a pattern's common subsequence: a literal character or a
  * wildcard (`*`) marking one residual field.
  */
sealed trait PTok extends Serializable
object PTok {
  final case class Lit(c: Char) extends PTok
  case object Wild extends PTok

  /** Literal tokens for a whole string. */
  def lits(s: String): Vector[PTok] = s.iterator.map(Lit.apply).toVector

  /** Collapse runs of adjacent wildcards into a single wildcard. */
  def normalize(toks: Seq[PTok]): Vector[PTok] = {
    val out = Vector.newBuilder[PTok]
    var prevWild = false
    toks.foreach {
      case Wild => if (!prevWild) out += Wild; prevWild = true
      case l    => out += l; prevWild = false
    }
    out.result()
  }
}

/** A pattern: alternating literal runs and wildcards, e.g. `ab*c*` has
  * runs ["ab", "c"] with fields after "ab" and after "c".
  *
  * The paper matches patterns as regular expressions (via Hyperscan); we
  * use an equivalent greedy glob matcher: matching every literal run at
  * its earliest feasible position is complete for `*`-globs, and the
  * final run is anchored at the end of the record when the pattern does
  * not end with a wildcard. Wildcards may capture empty strings.
  *
  * Immutable and thread-safe.
  */
final case class Pattern(tokens: Vector[PTok]) extends Serializable {
  import PTok._

  /** Literal runs in order. */
  val runs: Vector[String] = {
    val out = Vector.newBuilder[String]
    val sb = new StringBuilder
    tokens.foreach {
      case Lit(c) => sb.append(c)
      case Wild   => if (sb.nonEmpty) { out += sb.toString; sb.clear() }
    }
    if (sb.nonEmpty) out += sb.toString
    out.result()
  }

  val startsWithWild: Boolean = tokens.headOption.contains(Wild)
  val endsWithWild: Boolean   = tokens.lastOption.contains(Wild)

  /** Number of wildcard fields. */
  val numFields: Int = tokens.count(_ == Wild)

  /** Total literal characters — the paper's tiebreaker ("longest pattern"). */
  val litLen: Int = tokens.count(_.isInstanceOf[Lit])

  /** Captures a match yields: one per wildcard of a normalized pattern. */
  private val numCaptures: Int =
    if (runs.isEmpty) (if (numFields == 1) 1 else 0)
    else runs.length - 1 + (if (startsWithWild) 1 else 0) + (if (endsWithWild) 1 else 0)

  /** Allocation-free match of `s`: writes capture `f`'s start and end
    * offsets in `s` to `bounds(2f)` and `bounds(2f + 1)` (one capture per
    * wildcard, in order; `bounds` holds at least `2 * numFields` ints) and
    * returns whether the pattern matches; on a miss `bounds` may be partly written.
    */
  def matchBounds(s: String, bounds: Array[Int]): Boolean = {
    if (runs.isEmpty) {
      // pure-wildcard pattern: single field capturing everything
      if (numFields != 1) return false
      bounds(0) = 0; bounds(1) = s.length
      return true
    }
    var i = 0
    var r = 0
    var f = 0
    // leading anchored run
    if (!startsWithWild) {
      val run = runs(0)
      if (!s.startsWith(run)) return false
      i = run.length; r = 1
    }
    // trailing anchored run, checked before searching the middle runs
    var last = runs.length
    var end = s.length
    if (!endsWithWild && r < last) {
      last -= 1
      end = s.length - runs(last).length
      if (end < i || !s.startsWith(runs(last), end)) return false
    }
    while (r < last) {
      val run = runs(r)
      val idx = s.indexOf(run, i)
      if (idx < 0 || idx + run.length > end) return false
      bounds(f) = i; bounds(f + 1) = idx; f += 2
      i = idx + run.length
      r += 1
    }
    if (endsWithWild || last < runs.length) { bounds(f) = i; bounds(f + 1) = end; true }
    else i == s.length // the one run is the whole pattern
  }

  /** Match `s` against this pattern; returns the captured residual field
    * values (one per wildcard, in order) or None if the pattern does not
    * match.
    */
  def matchRecord(s: String): Option[Vector[String]] = {
    val b = new Array[Int](2 * numCaptures)
    if (!matchBounds(s, b)) None
    else Some(Vector.tabulate(numCaptures)(f => s.substring(b(2 * f), b(2 * f + 1))))
  }

  /** Literal chunks around the fields: `chunk(0) f0 chunk(1) f1 ... chunk(n)`
    * (possibly empty chunks) — precomputed so rendering appends whole
    * strings instead of single characters.
    */
  private lazy val chunks: Array[String] = {
    val out = Array.newBuilder[String]
    val sb = new StringBuilder
    tokens.foreach {
      case Lit(c) => sb.append(c)
      case Wild   => out += sb.toString; sb.clear()
    }
    out += sb.toString
    out.result()
  }

  /** Reassemble a record from captured field values. */
  def render(fields: IndexedSeq[String]): String =
    renderWith(fields.length, fields.apply)

  /** Streaming variant: `fieldAt` is called once per field, in order —
    * lets the decompressor decode fields straight into the output.
    */
  def renderWith(n: Int, fieldAt: Int => String): String = {
    val sb = new StringBuilder(litLen + 16 * n)
    var f = 0
    while (f < n) {
      sb.append(chunks(f)).append(fieldAt(f))
      f += 1
    }
    sb.append(chunks(f))
    sb.toString
  }

  /** Glob rendering, `*` = wildcard (literal `*` escaped as `\*`). */
  def glob: String =
    tokens.map {
      case Lit('*')  => "\\*"
      case Lit('\\') => "\\\\"
      case Lit(c)    => c.toString
      case Wild      => "*"
    }.mkString

  /** Java-regex rendering (what the paper feeds to Hyperscan). */
  def toRegex: String =
    tokens.map {
      case Lit(c) => java.util.regex.Pattern.quote(c.toString)
      case Wild   => "(.*?)"
    }.mkString("^", "", "$")
}

object Pattern {
  /** Exact-literal pattern for a single record (the initial cluster
    * pattern). Records longer than `maxLen` are truncated with a trailing
    * wildcard absorbing the tail, bounding the DP table size.
    */
  def ofRecord(s: String, maxLen: Int = Int.MaxValue): Pattern =
    if (s.length <= maxLen) Pattern(PTok.lits(s))
    else Pattern(PTok.lits(s.take(maxLen)) :+ PTok.Wild)
}
