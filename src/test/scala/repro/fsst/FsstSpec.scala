package repro.fsst

import org.scalatest.funsuite.AnyFunSuite
import repro.PropUtil
import repro.core.{ByteReader, ByteWriter}
import repro.data.MachineData
import java.nio.charset.StandardCharsets.UTF_8
import scala.util.Random

/** The encoder `FsstTable` used before its lookup index: per first byte,
  * the candidate symbols longest-first (equal lengths highest code
  * first), each compared byte by byte. Kept as the reference that the
  * indexed encoder must reproduce byte for byte.
  */
object FsstReference {
  def encode(t: FsstTable, input: Array[Byte]): Array[Byte] = {
    val syms = t.symbols
    val tmp = Array.fill(256)(List.empty[Int])
    syms.indices.foreach { i =>
      val fb = syms(i)(0) & 0xff
      tmp(fb) = i :: tmp(fb)
    }
    val byFirst = tmp.map(_.sortBy(i => -syms(i).length).toArray)
    def matchesAt(pos: Int, sym: Array[Byte]): Boolean =
      pos + sym.length <= input.length && sym.indices.forall(i => input(pos + i) == sym(i))
    val out = new java.io.ByteArrayOutputStream()
    var pos = 0
    while (pos < input.length) {
      byFirst(input(pos) & 0xff).find(c => matchesAt(pos, syms(c))) match {
        case Some(code) => out.write(code); pos += syms(code).length
        case None       => out.write(0xff); out.write(input(pos)); pos += 1
      }
    }
    out.toByteArray
  }
}

class FsstSpec extends AnyFunSuite with PropUtil {

  private def rt(t: FsstTable, s: String): Unit = {
    val b = s.getBytes(UTF_8)
    assert(t.decode(t.encode(b)).toSeq == b.toSeq, s"lossy on '$s'")
  }

  test("empty table escapes everything (2 bytes per byte)") {
    val t = FsstTable.empty
    val in = "abc".getBytes(UTF_8)
    assert(t.encode(in).length == 6)
    assert(t.decode(t.encode(in)).toSeq == in.toSeq)
  }

  test("the escape byte 0xFF itself round-trips") {
    val t = FsstTable.empty
    val in = Array[Byte](0xff.toByte, 0x00, 0xff.toByte)
    assert(t.decode(t.encode(in)).toSeq == in.toSeq)
  }

  test("a learned symbol shortens repeated content") {
    val sample = Vector.fill(100)("http://example.com/".getBytes(UTF_8))
    val t = Fsst.train(sample)
    val in = "http://example.com/abc".getBytes(UTF_8)
    val coded = t.encode(in)
    assert(coded.length < in.length, s"coded=${coded.length} raw=${in.length}")
    assert(t.decode(coded).toSeq == in.toSeq)
  }

  test("training yields at most 255 symbols of 1..8 bytes") {
    val sample = Vector.fill(50)(("lorem ipsum dolor sit amet " * 3).getBytes(UTF_8))
    val t = Fsst.train(sample)
    assert(t.symbols.length <= 255)
    t.symbols.foreach(s => assert(s.length >= 1 && s.length <= 8))
  }

  test("training on empty sample gives the empty table") {
    assert(Fsst.train(Nil).symbols.isEmpty)
  }

  test("compression ratio on templated text is at least 2x") {
    val recs = (0 until 500).map(i => s"GET /api/v1/items/$i HTTP/1.1 200 OK".getBytes(UTF_8))
    val t = Fsst.train(recs)
    val raw = recs.map(_.length).sum
    val comp = recs.map(r => t.encode(r).length).sum
    assert(comp.toDouble / raw < 0.55, s"ratio=${comp.toDouble / raw}")
  }

  test("random binary input round-trips (worst case: all escapes)") {
    val t = Fsst.train(Vector("some ascii sample".getBytes(UTF_8)))
    forAllSeeded(100) { r =>
      val b = randomBytes(r, 64)
      assert(t.decode(t.encode(b)).toSeq == b.toSeq)
    }
  }

  test("property: trained tables round-trip their own domain") {
    forAllSeeded(30) { r =>
      val recs = Vector.fill(50)(randomAscii(r, 40).getBytes(UTF_8))
      val t = Fsst.train(recs)
      recs.foreach(b => assert(t.decode(t.encode(b)).toSeq == b.toSeq))
    }
  }

  test("greedy encoder prefers longest symbols") {
    val t = new FsstTable(Array("ab".getBytes(UTF_8), "abcd".getBytes(UTF_8)))
    val coded = t.encode("abcd".getBytes(UTF_8))
    assert(coded.length == 1) // one code for "abcd", not two for "ab"+escapes
  }

  test("table serialization round-trips") {
    val t = Fsst.train(Vector.fill(30)("pattern based compression".getBytes(UTF_8)))
    val out = new ByteWriter()
    t.serialize(out)
    val t2 = FsstTable.deserialize(new ByteReader(out.toBytes))
    assert(t2.symbols.length == t.symbols.length)
    t.symbols.zip(t2.symbols).foreach { case (a, b) => assert(a.toSeq == b.toSeq) }
    rt(t2, "pattern based compression works")
  }

  test("training is deterministic") {
    val sample = Vector.fill(40)("deterministic training sample 12345".getBytes(UTF_8))
    val t1 = Fsst.train(sample)
    val t2 = Fsst.train(sample)
    assert(t1.symbols.map(_.toSeq).toSeq == t2.symbols.map(_.toSeq).toSeq)
  }

  test("empty input encodes to empty output") {
    val t = Fsst.train(Vector("abc".getBytes(UTF_8)))
    assert(t.encode(Array.empty[Byte]).isEmpty)
    assert(t.decode(Array.empty[Byte]).isEmpty)
  }

  // ---- the indexed encoder equals the byte-by-byte reference ----

  private def assertSameAsReference(t: FsstTable, in: Array[Byte]): Unit = {
    val want = FsstReference.encode(t, in)
    assert(t.encode(in).toSeq == want.toSeq, s"input ${in.map(b => f"${b & 0xff}%02x").mkString(" ")}")
    if (in.nonEmpty) {
      val code = t.longestMatch(in, 0)
      assert((if (code < 0) 0xff else code) == (want(0) & 0xff))
    }
  }

  /** Inputs for one table: every length 0-17 (tails shorter than a word)
    * drawn from the table's own symbol bytes plus 0x00 and 0xFF, runs of
    * 0xFF, random binary, and `samples` cut at random points.
    */
  private def inputs(t: FsstTable, samples: Seq[Array[Byte]], r: Random): Iterator[Array[Byte]] = {
    val alphabet = (t.symbols.flatten ++ Array[Byte](0, 0xff.toByte)).distinct
    val fromAlphabet = (0 to 17).iterator.flatMap { n =>
      Iterator.fill(20)(Array.fill(n)(alphabet(r.nextInt(alphabet.length))))
    }
    val fromSymbols = Iterator.fill(if (t.symbols.isEmpty) 0 else 200) {
      val parts = Array.fill(1 + r.nextInt(4))(t.symbols(r.nextInt(t.symbols.length)))
      val b = parts.flatten
      java.util.Arrays.copyOfRange(b, r.nextInt(b.length), b.length)
    }
    val cut = samples.iterator.map { b =>
      val from = r.nextInt(b.length + 1)
      java.util.Arrays.copyOfRange(b, from, from + r.nextInt(b.length - from + 1))
    }
    fromAlphabet ++ fromSymbols ++ cut ++ samples.iterator ++
      (0 to 17).iterator.map(n => Array.fill(n)(0xff.toByte)) ++
      Iterator.fill(200)(randomBytes(r, 40))
  }

  for (name <- Seq("KV1", "KV2", "Android", "github")) {
    test(s"encode equals the reference encoder on a table trained on $name") {
      val samples = MachineData.records(name, 400).map(_.getBytes(UTF_8))
      val t = Fsst.train(samples)
      assert(t.symbols.exists(_.length > 2))
      inputs(t, samples, new Random(name.hashCode)).foreach(assertSameAsReference(t, _))
    }
  }

  test("encode equals the reference encoder on hand-built tables") {
    def b(s: String): Array[Byte] = s.getBytes(UTF_8)
    val tables = Seq(
      // shared prefixes of every word-compare length
      Seq("a", "ab", "abc", "abcd", "abcde", "abcdef", "abcdefg", "abcdefgh", "b", "bc"),
      Seq("ab", "abc", "abcdefgh"), // no 1-byte symbols: escapes between
      // duplicate symbols: the highest code must win, as before
      Seq("ab", "x", "ab", "abc", "x", "abc", "bcd", "cdefgh", "cdefgh"),
      Seq("\u00ff\u00ff", "\u00ff\u00ff\u00ff", "h\u00ff"),
      (1 to 8).map(n => "abcdefgh".take(n).reverse), // lengths 1-8, no shared prefix
      Seq("hello", "hello wo", "world", "he", "h", "o w")
    ).map(syms => new FsstTable(syms.map(s => s.map(_.toByte).toArray).toArray)) ++ Seq(
      new FsstTable(Array(Array[Byte](0, 0, 0), Array[Byte](0), Array[Byte](0xff.toByte, 0, 0, 0, 0, 0, 0, 0))),
      FsstTable.empty)
    val r = new Random(11)
    tables.foreach { t =>
      val samples = Seq(b("abcdefghabcdefgh"), b("hello world"), b("abcabcab"))
      inputs(t, samples, r).foreach(assertSameAsReference(t, _))
    }
  }

  test("property: random tables encode as the reference does") {
    forAllSeeded(200) { r =>
      val alphabet = "abc\u00ff".map(_.toByte)
      val syms = Array.fill(1 + r.nextInt(30))(Array.fill(1 + r.nextInt(8))(alphabet(r.nextInt(4))))
      val t = new FsstTable(syms)
      (0 to 17).foreach { n =>
        assertSameAsReference(t, Array.fill(n)(alphabet(r.nextInt(alphabet.length))))
      }
    }
  }
}
