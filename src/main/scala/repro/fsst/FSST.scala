package repro.fsst

import java.io.ByteArrayOutputStream
import java.lang.invoke.MethodHandles
import java.nio.ByteOrder
import repro.core.{ByteReader, ByteWriter}

/** Fast Static Symbol Table (FSST; Boncz, Neumann & Leis, VLDB 2020),
  * reimplemented on the JVM.
  *
  * A table of at most 255 symbols (1–8 bytes each, codes 0–254) replaces
  * frequent substrings by one-byte codes; code 255 escapes a literal
  * byte. Compression and decompression are per-string, preserving random
  * access — FSST is both a baseline (Table 3) and the residual backbone
  * of `PBC_F`.
  *
  * Training follows the paper's iterative bottom-up construction: encode
  * the sample with the current table, count emitted symbols and adjacent
  * pairs, score candidates by `gain = count * length`, keep the best 255.
  *
  * Encoding looks symbols up as the paper does: a 65 536-entry table on
  * the next two bytes, then word compares for longer symbols.
  *
  * Immutable and thread-safe: the lookup index is a lazy val, built once
  * and published safely, and encode/decode keep their state on the stack.
  */
final class FsstTable(val symbols: Array[Array[Byte]]) extends Serializable {
  require(symbols.length <= 255, s"at most 255 symbols, got ${symbols.length}")
  require(symbols.forall(s => s.length >= 1 && s.length <= 8), "symbols are 1..8 bytes")

  /** Lookup index (see [[FsstTable.Index]]), built on first use and never serialized. */
  @transient private lazy val index: FsstTable.Index = FsstTable.Index(symbols)

  /** Code of the longest symbol at `pos` (`pos < input.length`), or -1;
    * among duplicate symbols the highest code wins.
    */
  private def matchAt(ix: FsstTable.Index, input: Array[Byte], pos: Int): Int = {
    val left = input.length - pos
    if (left == 1) return ix.single(input(pos) & 0xff)
    val word = FsstTable.loadLE(input, pos, left)
    val e = ix.pair(word.toInt & 0xffff)
    var c = e >>> 16
    val end = c + ((e >>> 8) & 0xff)
    while (c < end) {
      if (ix.longLen(c) <= left && (word & ix.longMask(c)) == ix.longWord(c)) return ix.longCode(c)
      c += 1
    }
    val best = e & 0xff
    if (best == 0xff) -1 else best
  }

  /** Code of the longest symbol matching at `pos`, or -1. */
  def longestMatch(input: Array[Byte], pos: Int): Int = matchAt(index, input, pos)

  /** Greedy longest-match encoding. */
  def encode(input: Array[Byte]): Array[Byte] = {
    val ix = index
    val out = new Array[Byte](2 * input.length) // every byte escaped
    var o = 0
    var pos = 0
    while (pos < input.length) {
      val code = matchAt(ix, input, pos)
      if (code >= 0) {
        out(o) = code.toByte; o += 1
        pos += ix.codeLen(code)
      } else {
        out(o) = 0xff.toByte // escape
        out(o + 1) = input(pos); o += 2
        pos += 1
      }
    }
    java.util.Arrays.copyOf(out, o)
  }

  def decode(coded: Array[Byte]): Array[Byte] = {
    val out = new ByteArrayOutputStream(coded.length * 2)
    var pos = 0
    while (pos < coded.length) {
      val c = coded(pos) & 0xff
      if (c == 0xff) { out.write(coded(pos + 1)); pos += 2 }
      else { val s = symbols(c); out.write(s, 0, s.length); pos += 1 }
    }
    out.toByteArray
  }

  def serialize(out: ByteWriter): Unit = {
    out.writeVarInt(symbols.length.toLong)
    symbols.foreach { s => out.writeVarInt(s.length.toLong); out.writeBytes(s) }
  }
}

object FsstTable {
  def deserialize(in: ByteReader): FsstTable = {
    val n = in.readVarInt().toInt
    new FsstTable(Array.fill(n)(in.readBytes(in.readVarInt().toInt)))
  }

  /** The identity table: everything escaped (used before training). */
  val empty: FsstTable = new FsstTable(Array.empty)

  private val LongLE = MethodHandles.byteArrayViewVarHandle(classOf[Array[Long]], ByteOrder.LITTLE_ENDIAN)

  /** Up to 8 bytes from `pos` as a little-endian word; `left` is the
    * number of input bytes from `pos` on, and missing bytes read as 0.
    */
  private def loadLE(b: Array[Byte], pos: Int, left: Int): Long =
    if (left >= 8) (LongLE.get(b, pos): Long) // ascribed: compiles to get([BI)J, no boxing
    else {
      var w = 0L
      var i = 0
      while (i < left) { w |= (b(pos + i) & 0xffL) << (8 * i); i += 1 }
      w
    }

  /** Symbol lookup after the FSST paper: one table lookup on the next two
    * bytes yields the best 1-2-byte code and the range of the 3-8-byte
    * symbols sharing that prefix, which are then compared longest-first,
    * each as one masked little-endian word.
    *
    * `pair(b0 | b1 << 8)` packs: bits 0-7 the best code for `b0 b1` (the
    * 2-byte symbol, else the 1-byte symbol `b0`, else 255 for none), bits
    * 8-15 the number of long candidates and bits 16-23 the first one's
    * slot in the `long*` arrays. `single(b0)` is the code for a last
    * input byte. Among duplicate symbols the highest code is found first.
    */
  private final class Index(
      val single: Array[Int],
      val pair: Array[Int],
      val longWord: Array[Long],
      val longMask: Array[Long],
      val longLen: Array[Int],
      val longCode: Array[Int],
      val codeLen: Array[Int])

  private object Index {
    def apply(symbols: Array[Array[Byte]]): Index = {
      val single = Array.fill(256)(-1)
      val byPair = Array.fill(1 << 16)(-1)
      val codes = symbols.indices
      for (c <- codes) {
        val s = symbols(c)
        if (s.length == 1) single(s(0) & 0xff) = c
        else if (s.length == 2) byPair(key(s)) = c
      }
      val longs = codes.filter(symbols(_).length > 2)
        .sortBy(c => (key(symbols(c)), -symbols(c).length, -c))
      val pair = Array.tabulate(1 << 16) { k =>
        (if (byPair(k) >= 0) byPair(k) else single(k & 0xff)) & 0xff
      }
      longs.indices.groupBy(i => key(symbols(longs(i)))).foreach { case (k, slots) =>
        pair(k) |= slots.min << 16 | slots.size << 8
      }
      new Index(single, pair,
        longs.map(c => loadLE(symbols(c), 0, symbols(c).length)).toArray,
        longs.map(c => -1L >>> (64 - 8 * symbols(c).length)).toArray,
        longs.map(symbols(_).length).toArray,
        longs.toArray,
        symbols.map(_.length))
    }

    private def key(s: Array[Byte]): Int = (s(0) & 0xff) | (s(1) & 0xff) << 8
  }
}

object Fsst {
  private val MaxSymbols = 255
  private val MaxSymbolLen = 8
  private val Iterations = 5
  private val MaxTrainBytes = 1 << 16

  private final class Key(val bytes: Array[Byte]) {
    override val hashCode: Int = java.util.Arrays.hashCode(bytes)
    override def equals(o: Any): Boolean = o match {
      case k: Key => java.util.Arrays.equals(bytes, k.bytes)
      case _      => false
    }
    def lexKey: String = bytes.map(b => f"${b & 0xff}%02x").mkString
  }

  /** Train a symbol table on a sample of byte chunks. */
  def train(sampleChunks: Iterable[Array[Byte]]): FsstTable = {
    val buf = new ByteArrayOutputStream()
    val it = sampleChunks.iterator
    while (it.hasNext && buf.size < MaxTrainBytes) {
      val c = it.next()
      buf.write(c, 0, math.min(c.length, MaxTrainBytes - buf.size))
    }
    val sample = buf.toByteArray
    if (sample.isEmpty) return FsstTable.empty

    var table = FsstTable.empty
    var iter = 0
    while (iter < Iterations) {
      // Walk the sample with the current table, recording emitted units.
      val unitPos = scala.collection.mutable.ArrayBuffer.empty[Int]
      val unitLen = scala.collection.mutable.ArrayBuffer.empty[Int]
      var pos = 0
      while (pos < sample.length) {
        val code = if (table.symbols.isEmpty) -1 else table.longestMatch(sample, pos)
        val len = if (code >= 0) table.symbols(code).length else 1
        unitPos += pos; unitLen += len
        pos += len
      }
      // Count units and adjacent-pair concatenations; gain = freq * len.
      val gain = scala.collection.mutable.Map.empty[Key, Long]
      def bump(p: Int, l: Int): Unit =
        if (l >= 1 && l <= MaxSymbolLen) {
          val k = new Key(java.util.Arrays.copyOfRange(sample, p, p + l))
          gain.update(k, gain.getOrElse(k, 0L) + l)
        }
      var u = 0
      while (u < unitPos.length) {
        bump(unitPos(u), unitLen(u))
        if (u + 1 < unitPos.length)
          bump(unitPos(u), math.min(unitLen(u) + unitLen(u + 1), MaxSymbolLen))
        u += 1
      }
      // Reserve a slot for every single byte observed in the sample —
      // an escape costs 2 bytes, so dropping a seen byte from the table
      // can only lose; this bounds worst-case expansion on the trained
      // alphabet at 1.0x. Remaining slots go to multi-byte candidates.
      val singles = scala.collection.mutable.LinkedHashSet.empty[Byte]
      sample.foreach(singles += _)
      val singleSyms = singles.toVector.sorted.map(b => Array(b))
      val multis = gain.toVector
        .filter(_._1.bytes.length > 1)
        .sortBy { case (k, g) => (-g, k.bytes.length, k.lexKey) }
        .take(MaxSymbols - math.min(singleSyms.size, MaxSymbols))
        .map(_._1.bytes)
      table = new FsstTable((singleSyms.take(MaxSymbols) ++ multis).toArray)
      iter += 1
    }
    table
  }
}
